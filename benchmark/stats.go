package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of tail percentiles a timing may be
// reported at, highest first.
var percentileLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// tailPercentile returns the highest ladder percentile not above want
// that still has at least ten samples beyond it (choosing-metrics §1): a
// p99 needs 1000 samples, a p95 200, and anything under 40 samples only
// supports its median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range percentileLadder {
		if p <= want && float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.50
}

// samples is a set of measurements in one unit.
type samples []float64

func (s *samples) add(v float64)            { *s = append(*s, v) }
func (s *samples) addDur(d time.Duration)   { *s = append(*s, float64(d)/float64(time.Microsecond)) }
func (s *samples) addDurMs(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile reports the p-quantile by linear interpolation between the two
// closest ranks; 0 for an empty set.
func (s samples) quantile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

func quantileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (s samples) median() float64 { return s.quantile(0.5) }

// midmean is the mean of the middle half of the samples (the
// interquartile mean): a typical value that, unlike the median, moves
// smoothly when the distribution has two humps of about equal weight —
// write latency under RealClock is a comb with teeth one timer tick apart
// — and, unlike the mean, ignores both tails.
func (s samples) midmean() float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	lo, hi := len(sorted)/4, len(sorted)-len(sorted)/4
	sum := 0.0
	for _, v := range sorted[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// tail reports the value at the highest supported percentile up to want,
// and which percentile that was.
func (s samples) tail(want float64) (value, used float64) {
	used = tailPercentile(len(s), want)
	return s.quantile(used), used
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which the acceptance driver uses for its spreads.
func (s samples) quartiles() (q1, q2, q3 float64) {
	n := len(s)
	if n < 2 {
		v := s.median()
		return v, v, v
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based
		j := max(1, min(int(math.Floor(pos)), n-1))
		frac := pos - float64(j) // after clamping, as Python extrapolates
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func (s samples) spread() float64 {
	q1, q2, q3 := s.quartiles()
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
