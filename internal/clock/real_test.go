package clock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClockRunsScheduledEvent(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	done := make(chan struct{})
	r.Post(func() {
		r.Schedule(5*time.Millisecond, func() { close(done) })
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("scheduled event did not fire")
	}
}

func TestRealClockPostFromManyGoroutines(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	const n = 100
	var ran atomic.Int32
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		go r.Post(func() {
			if ran.Add(1) == n {
				close(done)
			}
		})
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("only %d/%d posted callbacks ran", ran.Load(), n)
	}
}

func TestRealClockSerialExecution(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	// If callbacks overlapped, the unsynchronized counter below would race
	// (and fail under -race) or lose increments.
	counter := 0
	done := make(chan struct{})
	const n = 50
	for i := 0; i < n; i++ {
		go r.Post(func() {
			counter++
			if counter == n {
				close(done)
			}
		})
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatalf("counter = %d, want %d", counter, n)
	}
}

func TestRealClockOrderingOfTimers(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	var got []int
	done := make(chan struct{})
	r.Post(func() {
		r.Schedule(30*time.Millisecond, func() {
			got = append(got, 2)
			close(done)
		})
		r.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("timers did not fire")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("firing order = %v, want [1 2]", got)
	}
}

func TestRealClockCancel(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	fired := make(chan struct{}, 1)
	done := make(chan struct{})
	r.Post(func() {
		e := r.Schedule(50*time.Millisecond, func() { fired <- struct{}{} })
		e.Cancel()
		r.Schedule(100*time.Millisecond, func() { close(done) })
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sentinel event did not fire")
	}
	select {
	case <-fired:
		t.Fatal("cancelled event fired")
	default:
	}
}

func TestRealClockStopIsIdempotent(t *testing.T) {
	r := NewReal()
	r.Stop()
	r.Stop()
}

// spin starts a callback on the loop that reschedules itself with
// Schedule(0) until halt is set, counting its steps: the shape of a drain
// or pump chain once nothing sleeps a cost in between.
func spin(r *RealClock, halt *atomic.Bool, steps *atomic.Int64, each func(step int64)) {
	var step func()
	step = func() {
		if halt.Load() {
			return
		}
		n := steps.Add(1)
		r.Schedule(0, step)
		if each != nil {
			each(n)
		}
	}
	r.Post(step)
}

// A chain that is always due must not keep a Post from a foreign goroutine
// waiting: the post lands during one step and runs before the next.
func TestRealClockPostNotStarvedByZeroDelayChain(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	var halt atomic.Bool
	defer halt.Store(true) // lets Stop return where the loop is unfair
	var steps atomic.Int64

	const at = 1000
	reached := make(chan struct{})
	posted := make(chan struct{})
	spin(r, &halt, &steps, func(step int64) {
		if step == at {
			close(reached)
			<-posted // hold this step until the post is queued
		}
	})

	ranAt := make(chan int64, 1)
	go func() {
		<-reached
		r.Post(func() { ranAt <- steps.Load() })
		close(posted)
	}()
	select {
	case got := <-ranAt:
		if got != at {
			t.Fatalf("post queued during step %d ran after step %d, want before the next step", at, got)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("post starved: chain at step %d and still running", steps.Load())
	}
}

// An event put in the past from inside a turn is as due as a Schedule(0);
// it, too, waits its turn behind the posts.
func TestRealClockPostNotStarvedByPastScheduleAt(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	var halt atomic.Bool
	defer halt.Store(true)
	past := time.Now().Add(-time.Hour)
	started := make(chan struct{})
	n := 0
	var step func()
	step = func() {
		if n++; n == 10 {
			close(started)
		}
		if !halt.Load() {
			r.ScheduleAt(past, step)
		}
	}
	r.Post(step)
	<-started
	ran := make(chan struct{})
	r.Post(func() { close(ran) })
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("post starved by a chain of past-dated events")
	}
}

// Nor may such a chain sort ahead of a timer that has come due: each link
// would sit at the head of the queue, not yet in its turn, and hide the
// timer behind it.
func TestRealClockTimerNotStarvedByPastScheduleAt(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	var halt atomic.Bool
	defer halt.Store(true)
	past := time.Now().Add(-time.Hour)
	fired := make(chan struct{})
	var step func()
	step = func() {
		if !halt.Load() {
			r.ScheduleAt(past, step)
		}
	}
	r.Post(func() {
		r.Schedule(20*time.Millisecond, func() { close(fired) })
		step()
	})
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("timer starved by a chain of past-dated events")
	}
}

func TestRealClockStopDuringZeroDelayChain(t *testing.T) {
	r := NewReal()
	var halt atomic.Bool
	var steps atomic.Int64
	running := make(chan struct{})
	spin(r, &halt, &steps, func(step int64) {
		if step == 10 {
			close(running)
		}
	})
	<-running
	stopped := make(chan struct{})
	go func() {
		r.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		halt.Store(true)
		t.Fatal("Stop did not return while a Schedule(0) chain was running")
	}
}

// Events due in the same turn still fire in (when, seq) order, and the
// ones they schedule follow in the next.
func TestRealClockTurnKeepsOrder(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	var got []int
	done := make(chan struct{})
	r.Post(func() {
		r.Schedule(0, func() {
			got = append(got, 1)
			r.Schedule(0, func() {
				got = append(got, 3)
				close(done)
			})
		})
		r.Schedule(0, func() { got = append(got, 2) })
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("events did not fire")
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("firing order = %v, want [1 2 3]", got)
	}
}

// countArms wraps r's wake timer to count how often the loop sets it. It
// must run on the loop, the only goroutine that arms the timer.
func countArms(r *RealClock, arms *int) {
	arm := r.arm
	r.arm = func(d time.Duration) { *arms++; arm(d) }
}

// A chain of Schedule(100µs) steps arms the wake timer once per step: the
// spare turn Schedule's kick causes finds the deadline already armed.
func TestRealClockArmsOncePerScheduledStep(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	const steps = 200
	arms, n := 0, 0
	done := make(chan int, 1)
	var step func()
	step = func() {
		if n++; n > steps {
			done <- arms
			return
		}
		r.Schedule(100*time.Microsecond, step)
	}
	r.Post(func() { countArms(r, &arms); step() })
	select {
	case got := <-done:
		t.Logf("%d arms over %d scheduled steps", got, steps)
		if got > steps {
			t.Fatalf("%d arms over %d scheduled steps, want at most one each", got, steps)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the chain stalled")
	}
}

// Posts that wake the loop while it waits for an event leave the timer
// set for that event as it is.
func TestRealClockPostKeepsArmedTimer(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	arms := 0
	fired := make(chan int, 1)
	r.Post(func() {
		countArms(r, &arms)
		r.Schedule(50*time.Millisecond, func() { fired <- arms })
	})
	for i := 0; i < 20; i++ {
		r.Post(func() {})
		time.Sleep(time.Millisecond)
	}
	select {
	case n := <-fired:
		if n != 1 {
			t.Fatalf("the timer was armed %d times for one event", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the event did not fire")
	}
}
