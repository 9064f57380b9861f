package clock

import (
	"container/heap"
	"sync"
	"time"
)

// RealClock runs scheduled callbacks on a dedicated event-loop goroutine in
// wall-clock time. It preserves the serial execution model of SimClock: no
// two callbacks run concurrently, so protocol state needs no locking.
//
// Schedule/ScheduleAt/Cancel must be called from the loop goroutine (from
// inside a callback); external goroutines (e.g. a UDP reader) hand work to
// the loop with Post.
//
// The loop works in turns: the posts that have arrived, then the events
// that were scheduled before the turn began and are due. A callback that
// keeps rescheduling itself with Schedule(0) therefore runs once per turn,
// with every Post and the stop check in between.
//
// Between turns the loop sleeps until a Post, a Schedule or Stop wakes it,
// or a one-shot timer armed for the earliest pending event does. On Linux
// that is a timerfd, late by tens of µs; a time.Timer (elsewhere, or with
// no timerfd to be had) rounds every wait under 1 ms up to 1 ms.
//
// RealClock is also how a component learns that time is real: the
// processor resource (internal/cpu) runs work at hardware speed on a
// *RealClock and models it on any other Clock.
type RealClock struct {
	mu      sync.Mutex
	start   time.Time
	pending eventHeap
	posted  []func()
	seq     uint64
	wake    chan struct{}
	arm     func(time.Duration) // sets the wake timer, which kicks wake
	armed   time.Time           // the deadline the wake timer was last set for
	release func()              // stops the wake timer for good
	stop    chan struct{}
	done    chan struct{}
}

// NewReal starts a RealClock's event loop. Callers must Stop it when done.
func NewReal() *RealClock {
	r := &RealClock{
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	r.arm, r.release = newWaker(r.kick)
	go r.loop()
	return r
}

var _ Clock = (*RealClock)(nil)
var _ MonotonicClock = (*RealClock)(nil)

// Now reports the current wall-clock time.
func (r *RealClock) Now() time.Time { return time.Now() }

// Monotonic reports time elapsed since the clock was started, measured on
// the host's monotonic timebase (time.Since uses the monotonic reading
// captured at start, so wall-clock steps do not affect it).
func (r *RealClock) Monotonic() time.Duration { return time.Since(r.start) }

// Schedule arranges for fn to run d from now on the loop goroutine.
func (r *RealClock) Schedule(d time.Duration, fn func()) *Event {
	return r.schedule(time.Now().Add(max(d, 0)), fn)
}

// ScheduleAt arranges for fn to run at wall-clock time t. A t in the past
// means now: the event queues behind what is already due instead of ahead
// of it, where a chain of past-dated events would hold the head of the
// queue turn after turn and starve the due events behind it.
func (r *RealClock) ScheduleAt(t time.Time, fn func()) *Event {
	if now := time.Now(); t.Before(now) {
		t = now
	}
	return r.schedule(t, fn)
}

func (r *RealClock) schedule(t time.Time, fn func()) *Event {
	r.mu.Lock()
	r.seq++
	e := &Event{when: t, seq: r.seq, fn: fn}
	heap.Push(&r.pending, e)
	r.mu.Unlock()
	r.kick() // a spare turn on the loop, kept: writes measured faster with it (DESIGN.md §17)
	return e
}

// Post enqueues fn to run as soon as possible on the loop goroutine. It is
// safe to call from any goroutine.
func (r *RealClock) Post(fn func()) {
	r.mu.Lock()
	r.posted = append(r.posted, fn)
	r.mu.Unlock()
	r.kick()
}

// Stop shuts down the event loop and waits for it to exit. Pending events
// are discarded.
func (r *RealClock) Stop() {
	select {
	case <-r.stop:
		// Already stopped.
	default:
		close(r.stop)
	}
	<-r.done
}

func (r *RealClock) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *RealClock) loop() {
	defer close(r.done)
	defer r.release()
	var posted []func() // last turn's buffer, swapped with r.posted
	for {
		select {
		case <-r.stop:
			return
		default:
		}

		// One turn: the posts that arrived since the last turn, then the
		// events that were already scheduled (seq <= horizon) and due when
		// the turn began. Whatever they schedule or post waits for the
		// next turn, so a chain of Schedule(0) callbacks can neither
		// starve Post nor keep the loop from seeing stop.
		r.mu.Lock()
		posted, r.posted = r.posted, posted[:0]
		horizon := r.seq
		r.mu.Unlock()
		for i, fn := range posted {
			posted[i] = nil
			fn()
		}
		now := time.Now()
		for {
			r.mu.Lock()
			var next *Event
			if len(r.pending) > 0 {
				e := r.pending[0]
				if e.cancel || (e.seq <= horizon && !e.when.After(now)) {
					heap.Pop(&r.pending)
					next = e
				}
			}
			r.mu.Unlock()
			if next == nil {
				break
			}
			if !next.cancel {
				next.fn()
			}
		}

		// Sleep until the next event, a post, or shutdown, arming the timer
		// only for a new earliest deadline; with work already waiting, take
		// the next turn at once (a timer armed before may fire: harmless).
		r.mu.Lock()
		wait, at := time.Hour, time.Time{}
		if len(r.posted) > 0 {
			wait = 0
		} else if len(r.pending) > 0 {
			at, wait = r.pending[0].when, time.Until(r.pending[0].when)
		}
		r.mu.Unlock()
		if wait <= 0 {
			continue
		}
		if !at.Equal(r.armed) { // both zero: nothing pending, no timer wanted
			r.arm(wait)
			r.armed = at
		}
		select {
		case <-r.stop:
			return
		case <-r.wake:
		}
	}
}

// newTimerWaker returns a wake timer on a time.Timer: arm(d) has it call
// fire once, d later, replacing any expiry set before; release stops it.
func newTimerWaker(fire func()) (arm func(time.Duration), release func()) {
	t := time.AfterFunc(time.Hour, fire)
	return func(d time.Duration) { t.Reset(d) }, func() { t.Stop() }
}
