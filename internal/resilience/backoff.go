package resilience

import "time"

// Backoff computes capped exponential retransmission delays with
// deterministic jitter: each attempt doubles the delay, and a quarter of
// it more is added as uniform random slack. The jitter source is a
// seeded xorshift64* stream, never the wall clock, so simulation
// replays stay byte-identical.
type Backoff struct {
	// Cap bounds the delay after growth and jitter. Zero means 1s.
	Cap time.Duration
	rng uint64
}

// NewBackoff returns a backoff whose jitter stream is seeded by seed.
// The zero seed is remapped so the generator never degenerates.
func NewBackoff(seed uint64) *Backoff {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Backoff{rng: seed}
}

// next returns a uniform value in [0, 1) from the xorshift64* stream.
func (b *Backoff) next() float64 {
	b.rng ^= b.rng >> 12
	b.rng ^= b.rng << 25
	b.rng ^= b.rng >> 27
	x := b.rng * 0x2545F4914F6CDD1D
	return float64(x>>11) / float64(1<<53)
}

// DelayFrom returns the delay for the given zero-based attempt starting
// from base: base·2^attempt plus up to a quarter of that, capped at Cap.
func (b *Backoff) DelayFrom(base time.Duration, attempt int) time.Duration {
	cap := b.Cap
	if cap <= 0 {
		cap = time.Second
	}
	if base <= 0 {
		base = time.Millisecond
	}
	d := float64(base)
	for i := 0; i < attempt && time.Duration(d) < cap; i++ {
		d *= 2
	}
	if time.Duration(d) > cap {
		d = float64(cap)
	}
	d += d * 0.25 * b.next()
	if time.Duration(d) > cap {
		d = float64(cap)
	}
	return time.Duration(d)
}
