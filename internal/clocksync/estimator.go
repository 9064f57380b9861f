// Package clocksync estimates the clock offset between a replica and its
// peer from timestamps piggybacked on the detector heartbeat exchange
// (wire.TimeSync), in the style of Cristian's algorithm and NTP's on-wire
// protocol.
//
// Each probe yields four instants: t1 (request sent, prober's clock), t2
// (request received, responder's clock), t3 (echo sent, responder's
// clock), t4 (echo received, prober's clock). From these,
//
//	offset = ((t2−t1) + (t3−t4)) / 2
//	rtt    = (t4−t1) − (t3−t2)
//
// and the true offset provably lies within ±rtt/2 of the estimate
// (assuming only that neither one-way delay is negative). That half-RTT,
// widened by an assumed oscillator-drift bound as the sample ages, is the
// explicit error bound θ the temporal layer consumes: a monitor that
// tightens a consistency bound by θ — or declares it unverifiable when θ
// exceeds the slack — never claims more than the synchronization quality
// can support.
//
// The estimator is deterministic: given the same probe sequence it
// produces the same estimates, so seeded chaos replays stay
// byte-identical.
package clocksync

import (
	"time"

	"rtpb/internal/resilience"
)

// Config tunes an Estimator.
type Config struct {
	// MaxDriftPPM bounds the assumed relative oscillator drift between
	// the two clocks, in parts per million; θ widens at this rate as the
	// retained sample ages. Zero means 200 ppm (a generous bound for
	// unconditioned crystal oscillators).
	MaxDriftPPM float64
	// Link, when non-nil, receives one RTT sample per accepted probe —
	// the per-peer link estimator whose RTO machinery the resilience
	// layer already runs; clock-sync probes ride the same heartbeats, so
	// their round trips are link observations too.
	Link *resilience.Estimator
}

func (c *Config) normalize() {
	if c.MaxDriftPPM <= 0 {
		c.MaxDriftPPM = 200
	}
}

// Sample is one accepted probe's derived measurement.
type Sample struct {
	// Offset is the peer-minus-local clock offset estimate.
	Offset time.Duration
	// RTT is the probe's round-trip time net of responder hold time.
	RTT time.Duration
	// At is the local arrival instant (t4) the sample is anchored to.
	At time.Time
}

// Estimator maintains a per-peer clock-offset estimate with an explicit
// error bound. It retains the sample that currently yields the tightest
// bound: a fresh probe replaces the retained one as soon as its half-RTT
// is tighter than the old sample's drift-aged bound, so low-RTT probes
// are preferred and stale estimates honestly widen.
type Estimator struct {
	cfg      Config
	best     Sample
	hasBest  bool
	accepted uint64
	rejected uint64
}

// New returns an Estimator with the config's defaults filled in.
func New(cfg Config) *Estimator {
	cfg.normalize()
	return &Estimator{cfg: cfg}
}

// AddSample folds one completed probe into the estimate and reports the
// derived measurement. A probe whose net round trip is negative — a clock
// stepped mid-probe — is rejected (ok false) rather than poisoning the
// estimate.
func (e *Estimator) AddSample(t1, t2, t3, t4 time.Time) (Sample, bool) {
	rtt := t4.Sub(t1) - t3.Sub(t2)
	if rtt < 0 {
		e.rejected++
		return Sample{}, false
	}
	s := Sample{
		Offset: (t2.Sub(t1) + t3.Sub(t4)) / 2,
		RTT:    rtt,
		At:     t4,
	}
	e.accepted++
	if e.cfg.Link != nil {
		e.cfg.Link.SampleRTT(rtt)
	}
	if !e.hasBest || s.RTT/2 <= e.boundAt(t4) {
		e.best = s
		e.hasBest = true
	}
	return s, true
}

// boundAt reports the retained sample's error bound aged to now:
// half-RTT plus assumed drift accrued since the sample.
func (e *Estimator) boundAt(now time.Time) time.Duration {
	age := now.Sub(e.best.At)
	if age < 0 {
		age = 0
	}
	return e.best.RTT/2 + time.Duration(float64(age)*e.cfg.MaxDriftPPM*1e-6)
}

// Theta reports the error bound θ on the offset estimate as of now. The
// boolean is false before any probe completes — with no sample there is
// no bound, and callers must treat the offset as unknown, not as zero.
func (e *Estimator) Theta(now time.Time) (time.Duration, bool) {
	if !e.hasBest {
		return 0, false
	}
	return e.boundAt(now), true
}

// Report is a point-in-time summary of the estimator for status surfaces
// (the ctl CLOCK verb).
type Report struct {
	// Valid is false before any probe completes; the other fields are
	// meaningless then.
	Valid bool
	// Offset is the peer-minus-local offset estimate.
	Offset time.Duration
	// Theta is the error bound on Offset as of the report instant.
	Theta time.Duration
	// RTT is the retained sample's round-trip time.
	RTT time.Duration
	// Age is how long ago the retained sample was taken.
	Age time.Duration
	// Accepted and Rejected count probes.
	Accepted uint64
	Rejected uint64
}

// Report summarizes the estimator as of now.
func (e *Estimator) Report(now time.Time) Report {
	r := Report{Valid: e.hasBest, Accepted: e.accepted, Rejected: e.rejected}
	if !e.hasBest {
		return r
	}
	r.Offset = e.best.Offset
	r.Theta = e.boundAt(now)
	r.RTT = e.best.RTT
	if r.Age = now.Sub(e.best.At); r.Age < 0 {
		r.Age = 0
	}
	return r
}
