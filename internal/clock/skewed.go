package clock

import (
	"math"
	"time"
)

// MonotonicClock is implemented by clocks that expose an elapsed-time
// reading in the spirit of CLOCK_MONOTONIC: immune to offset changes and
// step jumps of the wall-clock reading, but still subject to oscillator
// drift. Components that measure elapsed time (failure-detector silence,
// RTO timers) should prefer this reading over differencing Now() values,
// which a wall-clock step can inflate or run backwards.
type MonotonicClock interface {
	// Monotonic reports time elapsed on the clock's monotonic timebase
	// since an arbitrary fixed origin. Successive readings never decrease.
	Monotonic() time.Duration
}

// Monotonic returns clk's monotonic reading when the clock provides one.
// The boolean reports whether it does; callers without one fall back to
// wall-clock differencing.
func Monotonic(clk Clock) (time.Duration, bool) {
	if m, ok := clk.(MonotonicClock); ok {
		return m.Monotonic(), true
	}
	return 0, false
}

// Monotonic reports virtual time elapsed since SimEpoch.
func (s *SimClock) Monotonic() time.Duration { return s.now.Sub(SimEpoch) }

var _ MonotonicClock = (*SimClock)(nil)

// SkewedClock wraps a base Clock with a per-node faulty timebase: a
// runtime-adjustable offset, step jumps, and an oscillator drift rate in
// parts per million. It models how real clock faults present to software:
//
//   - Offset and Step move only the wall-clock reading (Now). Armed
//     timers keep their base-time firing points and the monotonic reading
//     is unaffected, matching CLOCK_REALTIME vs CLOCK_MONOTONIC and timer
//     semantics on a stepped host.
//   - Drift affects everything — Now, Monotonic, and timer durations —
//     because a fast or slow oscillator underlies them all. A node
//     drifting at +10000 ppm sees its 50 ms heartbeat interval elapse in
//     49.5 ms of true time.
//
// Now is latched to be non-decreasing, so a negative step parks the
// reported time until the base clock catches up rather than running it
// backwards. All methods must be called from the base clock's executor;
// the wrapper is deterministic given the base clock and the fault
// sequence, so seeded chaos runs replay byte-identically.
type SkewedClock struct {
	base     Clock
	offset   time.Duration // wall-clock offset, moved by SetOffset/Step
	driftPPM float64       // current oscillator rate error
	driftAt  time.Time     // base instant the current rate took effect
	drift    time.Duration // drift accrued before driftAt under prior rates
	floor    time.Time     // monotone latch for Now
	hasFloor bool
}

// NewSkewed wraps base in an initially fault-free SkewedClock.
func NewSkewed(base Clock) *SkewedClock {
	return &SkewedClock{base: base, driftAt: base.Now()}
}

var _ Clock = (*SkewedClock)(nil)
var _ MonotonicClock = (*SkewedClock)(nil)

// totalDrift reports drift accrued up to base instant t.
func (k *SkewedClock) totalDrift(t time.Time) time.Duration {
	d := k.drift
	if k.driftPPM != 0 {
		d += time.Duration(float64(t.Sub(k.driftAt)) * k.driftPPM * 1e-6)
	}
	return d
}

// Now reports the node's faulty wall-clock reading: base time plus offset
// plus accrued drift, latched to never decrease.
func (k *SkewedClock) Now() time.Time {
	b := k.base.Now()
	t := b.Add(k.offset + k.totalDrift(b))
	if k.hasFloor && t.Before(k.floor) {
		return k.floor
	}
	k.floor = t
	k.hasFloor = true
	return t
}

// Monotonic reports elapsed time on the node's oscillator: immune to
// offset and steps, but carrying drift.
func (k *SkewedClock) Monotonic() time.Duration {
	b := k.base.Now()
	m, ok := Monotonic(k.base)
	if !ok {
		m = b.Sub(SimEpoch)
	}
	return m + k.totalDrift(b)
}

// toBase converts a duration measured on this node's oscillator into base
// time: a fast clock (positive ppm) sees d elapse in less true time.
func (k *SkewedClock) toBase(d time.Duration) time.Duration {
	if k.driftPPM == 0 || d <= 0 {
		return d
	}
	return time.Duration(math.Round(float64(d) / (1 + k.driftPPM*1e-6)))
}

// Schedule arranges for fn to run after d elapses on this node's faulty
// timebase. The firing point is fixed in base time when armed, so a later
// Step does not move pending timers.
func (k *SkewedClock) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return k.base.Schedule(k.toBase(d), fn)
}

// ScheduleAt arranges for fn to run when this node's wall clock reads t.
func (k *SkewedClock) ScheduleAt(t time.Time, fn func()) *Event {
	return k.Schedule(t.Sub(k.Now()), fn)
}

// Post runs fn on the base clock's executor as soon as possible.
func (k *SkewedClock) Post(fn func()) { k.base.Post(fn) }

// SetOffset sets the absolute wall-clock offset.
func (k *SkewedClock) SetOffset(o time.Duration) { k.offset = o }

// Step jumps the wall clock by d (negative steps it back; the Now latch
// then holds the reading until base time catches up).
func (k *SkewedClock) Step(d time.Duration) { k.offset += d }

// SetDrift changes the oscillator rate error, folding drift accrued under
// the previous rate into the running total so readings stay continuous.
func (k *SkewedClock) SetDrift(ppm float64) {
	b := k.base.Now()
	k.drift = k.totalDrift(b)
	k.driftAt = b
	k.driftPPM = ppm
}

// TrueOffset reports the node's total wall-clock error right now — offset
// plus accrued drift — i.e. skewed Now minus base Now. Chaos invariant
// checkers use it as ground truth when judging whether an estimator's
// error bound was honest.
func (k *SkewedClock) TrueOffset() time.Duration {
	b := k.base.Now()
	return k.offset + k.totalDrift(b)
}
