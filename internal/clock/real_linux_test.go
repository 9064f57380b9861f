package clock

import (
	"os"
	"runtime"
	"slices"
	"syscall"
	"testing"
	"time"
)

// The wake timer on Linux is a timerfd: the tests below judge how close to
// its due time an event runs, and that the timer comes and goes with its
// clock.

// overshoots runs a chain of n Schedule(d) calls, each from the callback
// before it, and returns how late each callback ran.
func overshoots(t *testing.T, r *RealClock, n int, d time.Duration) []time.Duration {
	t.Helper()
	late := make([]time.Duration, 0, n)
	done := make(chan struct{})
	var step func()
	step = func() {
		t0 := time.Now()
		r.Schedule(d, func() {
			if late = append(late, time.Since(t0)-d); len(late) == n {
				close(done)
				return
			}
			step()
		})
	}
	r.Post(step)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("chain stalled after %d of %d steps", len(late), n)
	}
	return late
}

// A time.Timer's wait is rounded up to the runtime poller's millisecond:
// a 200 µs request ran ~870 µs late. The timerfd is released at expiry.
func TestRealClockReleasesOnTime(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	const d = 200 * time.Microsecond
	late := overshoots(t, r, 500, d)
	slices.Sort(late)
	t.Logf("overshoot of Schedule(%v): p50 %v, p99 %v", d, late[len(late)/2], late[len(late)*99/100])
	if m := late[len(late)/2]; m >= d {
		t.Fatalf("median overshoot of Schedule(%v) = %v, want < %v", d, m, d)
	}
}

// An event scheduled ahead of the armed expiry re-arms the timer, and a
// cancelled head event does not keep the loop asleep past the next one.
func TestRealClockRearmsForEarlierEvent(t *testing.T) {
	r := NewReal()
	defer r.Stop()
	const slack = 50 * time.Millisecond
	fired := make(chan time.Duration, 1)
	at := func(d time.Duration) func() {
		t0 := time.Now()
		return func() { fired <- time.Since(t0) - d }
	}
	armed := make(chan struct{})
	r.Post(func() { r.Schedule(time.Hour, func() {}); close(armed) })
	<-armed // the loop sleeps on the hour or is about to
	r.Post(func() { r.Schedule(5*time.Millisecond, at(5*time.Millisecond)) })
	if late := <-fired; late > slack {
		t.Fatalf("event ahead of the armed expiry ran %v late, want <= %v", late, slack)
	}

	r.Post(func() {
		head := r.Schedule(20*time.Millisecond, func() { t.Error("cancelled event ran") })
		r.Schedule(10*time.Millisecond, func() { head.Cancel() })
		r.Schedule(60*time.Millisecond, at(60*time.Millisecond))
	})
	if late := <-fired; late > slack {
		t.Fatalf("event behind a cancelled head ran %v late, want <= %v", late, slack)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(fds)
}

// Stop closes the timerfd and waits for the goroutine that reads it.
func TestRealClockStopReleasesTimer(t *testing.T) {
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	for i := 0; i < 200; i++ {
		r := NewReal()
		fired := make(chan struct{})
		r.Post(func() { r.Schedule(0, func() { close(fired) }) })
		<-fired
		r.Stop()
	}
	if n := openFDs(t); n != fds {
		t.Errorf("open descriptors %d -> %d over 200 clocks", fds, n)
	}
	// Goroutines of earlier tests may still be on their way out.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("goroutines %d -> %d over 200 clocks", goroutines, n)
	}
}

// With no descriptor to be had, NewReal falls back to a time.Timer, and
// events still run.
func TestRealClockFallsBackWithoutTimerfd(t *testing.T) {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = uint64(openFDs(t) + 16)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skipf("cannot lower RLIMIT_NOFILE: %v", err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim)
	var fill []*os.File
	defer func() {
		for _, f := range fill {
			f.Close()
		}
	}()
	for {
		f, err := os.Open(os.DevNull)
		if err != nil {
			break
		}
		fill = append(fill, f)
	}
	if f, err := os.Open(os.DevNull); err == nil {
		f.Close()
		t.Fatal("a descriptor is still free")
	}
	r := NewReal()
	defer r.Stop()
	overshoots(t, r, 3, time.Millisecond)
}
