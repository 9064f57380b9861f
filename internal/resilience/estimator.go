// Package resilience holds the adaptive-timer machinery of the RTPB
// resilience layer: a Jacobson/Karn link estimator (EWMA RTT, delivered
// and lost exchanges counted) that turns observed ack behaviour into
// retransmission timeouts, a capped exponential backoff with
// deterministic jitter, and a phi-accrual-style suspicion scorer for the
// failure detector.
//
// Everything here is driven by the deterministic simulation clock and a
// seeded xorshift generator, so replays of the same scenario and seed stay
// byte-identical.
package resilience

import "time"

// EstimatorConfig tunes a per-peer link Estimator.
type EstimatorConfig struct {
	// InitialRTO is the retransmission timeout reported before any RTT
	// sample has been observed. It should match the protocol's static
	// timeout so adaptivity only changes behaviour once evidence exists.
	InitialRTO time.Duration
	// MinRTO and MaxRTO clamp the computed timeout.
	MinRTO time.Duration
	MaxRTO time.Duration
}

func (c *EstimatorConfig) normalize() {
	if c.InitialRTO <= 0 {
		c.InitialRTO = 20 * time.Millisecond
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 2 * time.Millisecond
	}
	if c.MaxRTO <= 0 {
		c.MaxRTO = time.Second
	}
	if c.MaxRTO < c.MinRTO {
		c.MaxRTO = c.MinRTO
	}
}

// Estimator tracks one peer link's round-trip time from ack observations,
// and counts delivered and lost exchanges, in the style of Jacobson's TCP estimator with Karn's rule
// applied by the caller (only sample RTT from exchanges that were never
// retransmitted).
type Estimator struct {
	cfg    EstimatorConfig
	srtt   time.Duration
	rttvar time.Duration
	hasRTT bool
	acks   uint64
	losses uint64
}

// NewEstimator returns an estimator with the config's defaults filled in.
func NewEstimator(cfg EstimatorConfig) *Estimator {
	cfg.normalize()
	return &Estimator{cfg: cfg}
}

// SampleRTT folds one round-trip measurement into the smoothed estimate and
// counts the exchange as delivered. Per Karn's rule, callers must not pass
// RTTs measured across a retransmission (use SampleAck for those acks).
func (e *Estimator) SampleRTT(rtt time.Duration) {
	if rtt < 0 {
		rtt = 0
	}
	if !e.hasRTT {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.hasRTT = true
	} else {
		err := rtt - e.srtt
		if err < 0 {
			e.rttvar += (-err - e.rttvar) / 4
		} else {
			e.rttvar += (err - e.rttvar) / 4
		}
		e.srtt += err / 8
	}
	e.sampleDelivered()
}

// SampleAck records a delivered exchange with no usable RTT (for example an
// ack that arrived after a retransmission, which Karn's rule excludes from
// RTT sampling). It counts the exchange only.
func (e *Estimator) SampleAck() { e.sampleDelivered() }

func (e *Estimator) sampleDelivered() { e.acks++ }

// SampleLoss records a presumed-lost exchange (a retry timer fired with the
// ack still outstanding).
func (e *Estimator) SampleLoss() { e.losses++ }

// RTO returns the current retransmission timeout: srtt + 4·rttvar clamped
// to [MinRTO, MaxRTO], or InitialRTO before the first RTT sample.
func (e *Estimator) RTO() time.Duration {
	if !e.hasRTT {
		return e.cfg.InitialRTO
	}
	rto := e.srtt + 4*e.rttvar
	if rto < e.cfg.MinRTO {
		rto = e.cfg.MinRTO
	}
	if rto > e.cfg.MaxRTO {
		rto = e.cfg.MaxRTO
	}
	return rto
}

// SRTT returns the smoothed round-trip time (zero before any sample).
func (e *Estimator) SRTT() time.Duration { return e.srtt }

// Samples returns the raw delivered/lost observation counts.
func (e *Estimator) Samples() (acks, losses uint64) { return e.acks, e.losses }
