package clock

import (
	"container/heap"
	"time"
)

// SimClock is a discrete-event virtual-time clock. Time advances only when
// Run, RunFor, RunUntil, or Step is called, jumping directly to the next
// scheduled event. All callbacks run on the caller's goroutine, so a
// simulation driven by a SimClock is fully deterministic.
//
// The zero value is not usable; construct with NewSim.
type SimClock struct {
	now     time.Time
	seq     uint64
	pending eventHeap
	running bool
}

// SimEpoch is the instant at which new SimClocks start. Using a fixed,
// round epoch makes virtual timestamps in traces and test failures easy to
// read.
var SimEpoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewSim returns a SimClock positioned at SimEpoch.
func NewSim() *SimClock {
	return &SimClock{now: SimEpoch}
}

var _ Clock = (*SimClock)(nil)

// Now reports the current virtual time.
func (s *SimClock) Now() time.Time { return s.now }

// Schedule arranges for fn to run d from now in virtual time.
func (s *SimClock) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.now.Add(d), fn)
}

// ScheduleAt arranges for fn to run at virtual time t.
func (s *SimClock) ScheduleAt(t time.Time, fn func()) *Event {
	if t.Before(s.now) {
		t = s.now
	}
	s.seq++
	e := &Event{when: t, seq: s.seq, fn: fn}
	heap.Push(&s.pending, e)
	return e
}

// Post runs fn at the current virtual time, after already-pending events at
// this instant.
func (s *SimClock) Post(fn func()) { s.Schedule(0, fn) }

// Step runs the single next pending event, advancing virtual time to it.
// It reports whether an event ran.
func (s *SimClock) Step() bool {
	for len(s.pending) > 0 {
		e := heap.Pop(&s.pending).(*Event)
		if e.cancel {
			continue
		}
		s.now = e.when
		e.fn()
		return true
	}
	return false
}

// RunUntil runs all events scheduled at or before t, then advances the
// clock to exactly t. It returns the number of events run.
func (s *SimClock) RunUntil(t time.Time) int {
	n := 0
	for len(s.pending) > 0 {
		next := s.pending[0]
		if next.cancel {
			heap.Pop(&s.pending)
			continue
		}
		if next.when.After(t) {
			break
		}
		s.Step()
		n++
	}
	if s.now.Before(t) {
		s.now = t
	}
	return n
}

// RunFor advances the clock by d, running every event that falls due.
func (s *SimClock) RunFor(d time.Duration) int {
	return s.RunUntil(s.now.Add(d))
}
