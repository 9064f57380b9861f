// Package clock provides the time substrate for the RTPB replication
// service. Every component in this repository schedules work against the
// Clock interface rather than the standard library timers, which lets the
// identical protocol code run either in real time (RealClock, used by the
// cmd/ daemons) or in deterministic virtual time (SimClock, used by the
// test suite and the benchmark harness that regenerates the paper's
// figures).
//
// Both implementations execute scheduled callbacks serially on a single
// logical executor, so protocol code never needs internal locking: the
// clock is the event loop.
package clock

import "time"

// Clock schedules callbacks to run at (virtual or real) points in time.
// Callbacks run serially: no two callbacks scheduled on the same Clock ever
// execute concurrently.
type Clock interface {
	// Now reports the clock's current time.
	Now() time.Time

	// Schedule arranges for fn to run d from now. A non-positive d runs fn
	// as soon as possible. The returned event can be cancelled.
	Schedule(d time.Duration, fn func()) *Event

	// ScheduleAt arranges for fn to run at time t. A t in the past runs fn
	// as soon as possible.
	ScheduleAt(t time.Time, fn func()) *Event

	// Post runs fn on the clock's executor as soon as possible. It is the
	// only Clock method that is safe to call from outside the executor
	// (for example from a network receive goroutine).
	Post(fn func())
}

// Event is a handle to a scheduled callback.
type Event struct {
	when    time.Time
	seq     uint64
	fn      func()
	cancel  bool
	index   int // heap index, -1 once popped
	onAbort func(*Event)
}

// Cancel prevents the event's callback from running. It reports whether the
// event was still pending. Cancel must be called from the clock's executor
// (i.e. from inside another callback), matching the serial execution model.
func (e *Event) Cancel() bool {
	if e == nil || e.cancel || e.index == -1 {
		return false
	}
	e.cancel = true
	if e.onAbort != nil {
		e.onAbort(e)
	}
	return true
}

// eventHeap orders events by (when, seq) so that events scheduled for the
// same instant fire in scheduling order.
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
