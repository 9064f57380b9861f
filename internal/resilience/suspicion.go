package resilience

import (
	"math"
	"time"
)

// suspicionMinSamples is how many inter-arrival gaps must be observed
// before Level is considered meaningful; below this, callers should fall
// back to their fixed threshold.
const suspicionMinSamples = 8

// Suspicion is a phi-accrual-style failure suspicion scorer: it maintains
// an EWMA mean and variance of the inter-arrival gaps of heartbeat acks
// and scores the current silence as a normalized deviation from that
// history. Unlike a fixed miss threshold, a link with naturally jittery
// acks earns a wide distribution and therefore tolerates long silences,
// while a historically crisp link converts the same silence into high
// suspicion quickly.
type Suspicion struct {
	gain    float64
	mean    float64 // EWMA of gap, in seconds
	varSec  float64 // EWMA of squared deviation, in seconds²
	samples int
	last    time.Time
	hasLast bool
}

// NewSuspicion returns a scorer with EWMA gain 1/8.
func NewSuspicion() *Suspicion { return &Suspicion{gain: 1.0 / 8} }

// Observe records one ack arrival at the given instant.
func (s *Suspicion) Observe(at time.Time) {
	if s.hasLast {
		gap := at.Sub(s.last).Seconds()
		if gap < 0 {
			gap = 0
		}
		if s.samples == 0 {
			s.mean = gap
			s.varSec = gap * gap / 4
		} else {
			dev := gap - s.mean
			s.mean += s.gain * dev
			s.varSec += s.gain * (dev*dev - s.varSec)
		}
		s.samples++
	}
	s.last = at
	s.hasLast = true
}

// Ready reports whether enough gap history exists for Level to be
// trusted over a fixed threshold.
func (s *Suspicion) Ready() bool { return s.samples >= suspicionMinSamples }

// Level scores the silence since the last observed ack as a number of
// standard deviations above the historical mean gap (floored at zero).
// Callers compare it against a threshold on the order of 3–5.
func (s *Suspicion) Level(now time.Time) float64 {
	if !s.hasLast || s.samples == 0 {
		return 0
	}
	elapsed := now.Sub(s.last).Seconds()
	if elapsed <= s.mean {
		return 0
	}
	// Floor the deviation so a near-zero-variance history cannot turn
	// microscopic jitter into unbounded suspicion.
	std := math.Sqrt(s.varSec)
	if floor := s.mean/4 + 1e-3; std < floor {
		std = floor
	}
	return (elapsed - s.mean) / std
}

// Reset clears all history (used when the monitored peer changes).
func (s *Suspicion) Reset() { *s = Suspicion{gain: s.gain} }
