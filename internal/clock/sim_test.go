package clock

import (
	"testing"
	"time"
)

func TestSimClockStartsAtEpoch(t *testing.T) {
	s := NewSim()
	if !s.Now().Equal(SimEpoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), SimEpoch)
	}
}

func TestSimClockScheduleOrdering(t *testing.T) {
	s := NewSim()
	var got []int
	s.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	s.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	s.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	for s.Step() {
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
}

func TestSimClockSameInstantFIFO(t *testing.T) {
	s := NewSim()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	for s.Step() {
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want ascending", got)
		}
	}
}

func TestSimClockTimeAdvancesToEvent(t *testing.T) {
	s := NewSim()
	var at time.Time
	s.Schedule(42*time.Millisecond, func() { at = s.Now() })
	for s.Step() {
	}
	if want := SimEpoch.Add(42 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("callback saw Now() = %v, want %v", at, want)
	}
}

func TestSimClockRunUntilAdvancesExactly(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(100*time.Millisecond, func() { fired = true })
	s.RunUntil(SimEpoch.Add(50 * time.Millisecond))
	if fired {
		t.Fatal("event at 100ms fired during RunUntil(50ms)")
	}
	if want := SimEpoch.Add(50 * time.Millisecond); !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
	s.RunFor(50 * time.Millisecond)
	if !fired {
		t.Fatal("event at 100ms did not fire by 100ms")
	}
}

func TestSimClockCancel(t *testing.T) {
	s := NewSim()
	fired := false
	e := s.Schedule(10*time.Millisecond, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("Cancel() = false for pending event")
	}
	if e.Cancel() {
		t.Fatal("second Cancel() = true, want false")
	}
	for s.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSimClockCancelFromCallback(t *testing.T) {
	s := NewSim()
	fired := false
	e := s.Schedule(20*time.Millisecond, func() { fired = true })
	s.Schedule(10*time.Millisecond, func() { e.Cancel() })
	for s.Step() {
	}
	if fired {
		t.Fatal("event cancelled by earlier callback still fired")
	}
}

func TestSimClockScheduleInPastClampsToNow(t *testing.T) {
	s := NewSim()
	s.RunFor(time.Second)
	var at time.Time
	s.ScheduleAt(SimEpoch, func() { at = s.Now() })
	for s.Step() {
	}
	if want := SimEpoch.Add(time.Second); !at.Equal(want) {
		t.Fatalf("past event ran at %v, want clamped to %v", at, want)
	}
}

func TestSimClockNestedScheduling(t *testing.T) {
	s := NewSim()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.Schedule(time.Millisecond, recurse)
		}
	}
	s.Schedule(time.Millisecond, recurse)
	for s.Step() {
	}
	if depth != 5 {
		t.Fatalf("nested scheduling depth = %d, want 5", depth)
	}
	if want := SimEpoch.Add(5 * time.Millisecond); !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestSimClockLenSkipsCancelled(t *testing.T) {
	s := NewSim()
	e := s.Schedule(time.Millisecond, func() {})
	s.Schedule(time.Millisecond, func() {})
	e.Cancel()
	n := 0
	for _, e := range s.pending {
		if !e.cancel {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d pending events not cancelled, want 1", n)
	}
}

func TestSimClockPostRunsAtCurrentInstant(t *testing.T) {
	s := NewSim()
	var at time.Time
	s.RunFor(7 * time.Millisecond)
	s.Post(func() { at = s.Now() })
	for s.Step() {
	}
	if want := SimEpoch.Add(7 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("posted callback ran at %v, want %v", at, want)
	}
}

func TestPeriodicDriftFree(t *testing.T) {
	s := NewSim()
	var fires []time.Duration
	p := NewPeriodic(s, 0, 10*time.Millisecond, func() {
		fires = append(fires, s.Now().Sub(SimEpoch))
	})
	s.RunFor(55 * time.Millisecond)
	p.Stop()
	want := []time.Duration{0, 10, 20, 30, 40, 50}
	if len(fires) != len(want) {
		t.Fatalf("fired %d times, want %d: %v", len(fires), len(want), fires)
	}
	for i, w := range want {
		if fires[i] != w*time.Millisecond {
			t.Fatalf("fire %d at %v, want %v", i, fires[i], w*time.Millisecond)
		}
	}
}

func TestPeriodicOffset(t *testing.T) {
	s := NewSim()
	var first time.Duration = -1
	p := NewPeriodic(s, 5*time.Millisecond, 10*time.Millisecond, func() {
		if first < 0 {
			first = s.Now().Sub(SimEpoch)
		}
	})
	s.RunFor(30 * time.Millisecond)
	p.Stop()
	if first != 5*time.Millisecond {
		t.Fatalf("first fire at %v, want 5ms", first)
	}
}

func TestPeriodicStop(t *testing.T) {
	s := NewSim()
	count := 0
	p := NewPeriodic(s, 0, 10*time.Millisecond, func() { count++ })
	s.RunFor(25 * time.Millisecond)
	p.Stop()
	p.Stop() // idempotent
	at := count
	s.RunFor(100 * time.Millisecond)
	if count != at {
		t.Fatalf("periodic fired %d more times after Stop", count-at)
	}
	if !p.stopped {
		t.Fatal("stopped = false after Stop")
	}
}

func TestPeriodicSetPeriod(t *testing.T) {
	s := NewSim()
	var fires []time.Duration
	p := NewPeriodic(s, 0, 10*time.Millisecond, func() {
		fires = append(fires, s.Now().Sub(SimEpoch))
	})
	s.RunFor(15 * time.Millisecond) // fires at 0, 10
	p.SetPeriod(20 * time.Millisecond)
	s.RunFor(50 * time.Millisecond) // next at 20 (already scheduled), then 40, 60
	p.Stop()
	want := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
}

func TestPeriodicPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPeriodic(period=0) did not panic")
		}
	}()
	NewPeriodic(NewSim(), 0, 0, func() {})
}
