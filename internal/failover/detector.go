// Package failover implements the failure detection and recovery
// machinery of Section 4.4: a ping/ack heartbeat detector with timeout and
// retry, a name service recording which replica currently serves as
// primary, and the promotion procedure that turns a backup into the new
// primary (update the name service, activate the standby client
// application, seed the new primary's table from replicated state, and
// wait to recruit a new backup).
package failover

import (
	"errors"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/resilience"
)

// DetectorConfig tunes the heartbeat failure detector.
type DetectorConfig struct {
	// Interval is the ping period.
	Interval time.Duration
	// Timeout is how long to wait for a ping's ack before counting a
	// miss and resending.
	Timeout time.Duration
	// MaxMisses is the number of consecutive unanswered pings after
	// which the peer is declared dead.
	MaxMisses int
	// Adaptive layers a phi-accrual-style suspicion score over the fixed
	// MaxMisses threshold: once MaxMisses consecutive pings go
	// unanswered, the peer is declared dead only if the current silence
	// is also SuspicionThreshold standard deviations beyond the
	// historical inter-ack gap distribution (or the history is too thin
	// to judge). A naturally jittery link earns a wide distribution and
	// rides out silences that would false-fail a fixed threshold; a
	// historically crisp link converts the same silence into high
	// suspicion just as fast as before.
	Adaptive bool
	// SuspicionThreshold is the normalized-deviation score past which an
	// adaptive detector declares death; defaults to 4.
	SuspicionThreshold float64
	// MaxSilence hard-caps how long an adaptive detector will defer to
	// its learned distribution: any silence at least this long is fatal
	// regardless of suspicion score. Defaults to 8×Interval.
	MaxSilence time.Duration
	// WallClockElapsed restores the seed's behaviour of measuring
	// detector silences by differencing wall-clock Now() readings. The
	// hardened default measures them on the clock's monotonic timebase
	// (clock.MonotonicClock), which a wall-clock step cannot inflate —
	// under the legacy behaviour a forward step makes the silence since
	// the last ack look MaxSilence long and manufactures a false
	// failover from a healthy peer (the chaos scenario
	// clock-step-false-failover pins both outcomes). This knob exists as
	// that ablation; never enable it in a deployment.
	WallClockElapsed bool
}

// DefaultDetectorConfig returns the configuration used by the examples
// and the evaluation harness.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		Interval:  50 * time.Millisecond,
		Timeout:   30 * time.Millisecond,
		MaxMisses: 3,
	}
}

// Validate checks the configuration.
func (c DetectorConfig) Validate() error {
	switch {
	case c.Interval <= 0:
		return errors.New("failover: non-positive ping interval")
	case c.Timeout <= 0:
		return errors.New("failover: non-positive ack timeout")
	case c.MaxMisses <= 0:
		return errors.New("failover: MaxMisses must be at least 1")
	case c.Adaptive && c.SuspicionThreshold < 0:
		return errors.New("failover: negative SuspicionThreshold")
	case c.Adaptive && c.MaxSilence < 0:
		return errors.New("failover: negative MaxSilence")
	}
	return nil
}

// normalized fills the adaptive defaults.
func (c DetectorConfig) normalized() DetectorConfig {
	if c.Adaptive {
		if c.SuspicionThreshold == 0 {
			c.SuspicionThreshold = 4
		}
		if c.MaxSilence == 0 {
			c.MaxSilence = 8 * c.Interval
		}
	}
	return c
}

// Detector drives the heartbeat exchange for one replica: it periodically
// invokes send (which transmits a Ping and returns its sequence number),
// expects OnAck for that sequence within Timeout, resends on timeout, and
// declares the peer dead after MaxMisses consecutive unanswered pings.
type Detector struct {
	clk    clock.Clock
	cfg    DetectorConfig
	send   func() uint64
	onDead func()

	task       *clock.Periodic
	timeout    *clock.Event
	awaiting   uint64
	hasPending bool
	misses     int
	alive      bool
	running    bool
	suppressed bool

	// Adaptive suspicion state: the inter-ack gap distribution and the
	// instant of the most recent proof of life.
	susp    *resilience.Suspicion
	lastAck time.Time
	hasAck  bool
}

// NewDetector builds a stopped detector; call Start to begin pinging.
// send must transmit a heartbeat and return its sequence number; onDead
// fires once when the peer is declared dead.
func NewDetector(clk clock.Clock, cfg DetectorConfig, send func() uint64, onDead func()) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Detector{clk: clk, cfg: cfg.normalized(), send: send, onDead: onDead, alive: true}
	if d.cfg.Adaptive {
		d.susp = resilience.NewSuspicion()
	}
	return d, nil
}

// Start begins the periodic heartbeat. It is a no-op if already running.
func (d *Detector) Start() {
	if d.running {
		return
	}
	d.running = true
	d.alive = true
	d.misses = 0
	d.task = clock.NewPeriodic(d.clk, 0, d.cfg.Interval, d.ping)
}

// Stop cancels heartbeats and timeouts.
func (d *Detector) Stop() {
	if !d.running {
		return
	}
	d.running = false
	d.task.Stop()
	if d.timeout != nil {
		d.timeout.Cancel()
		d.timeout = nil
	}
	d.hasPending = false
}

// Reset clears failure state so the detector can monitor a newly
// recruited peer.
func (d *Detector) Reset() {
	d.alive = true
	d.misses = 0
	d.hasPending = false
	if d.timeout != nil {
		d.timeout.Cancel()
		d.timeout = nil
	}
	if d.susp != nil {
		d.susp.Reset()
		d.hasAck = false
	}
}

// Suppress pauses (true) or resumes (false) the heartbeat exchange
// without tearing the detector down: while suppressed, no pings are sent,
// any in-flight timeout is cancelled, and the miss count is frozen, so a
// crash during suppression is only detected after resumption. Fault
// harnesses use it to model a wedged monitoring task.
func (d *Detector) Suppress(suppress bool) {
	if d.suppressed == suppress {
		return
	}
	d.suppressed = suppress
	if suppress {
		d.hasPending = false
		if d.timeout != nil {
			d.timeout.Cancel()
			d.timeout = nil
		}
	}
}

func (d *Detector) ping() {
	if !d.running || !d.alive || d.suppressed {
		return
	}
	if d.hasPending {
		// The previous ping is still outstanding; its timeout handles
		// retries. Skip to avoid flooding a slow peer.
		return
	}
	d.sendPing()
}

func (d *Detector) sendPing() {
	d.awaiting = d.send()
	d.hasPending = true
	d.timeout = d.clk.Schedule(d.cfg.Timeout, d.onTimeout)
}

func (d *Detector) onTimeout() {
	if !d.running || !d.alive || !d.hasPending || d.suppressed {
		return
	}
	d.misses++
	if d.misses >= d.cfg.MaxMisses && !d.silenceTolerable() {
		d.alive = false
		d.hasPending = false
		d.Stop()
		if d.onDead != nil {
			d.onDead()
		}
		return
	}
	// Timeout and resend, per the paper: "if a server receives no
	// acknowledgment over some time, it will timeout and resend".
	d.sendPing()
}

// monoEpoch anchors monotonic readings as time.Time instants so they can
// feed APIs (Suspicion) that difference instants. Only differences of
// instants from the same timebase are ever taken, so the anchor value is
// arbitrary.
var monoEpoch = time.Unix(0, 0)

// instant reports the detector's elapsed-time reading as an instant. All
// of the detector's duration arithmetic (silence since last ack, the
// suspicion scorer's inter-ack gaps) differences these instants, so they
// are taken from the clock's monotonic timebase when it offers one: a
// wall-clock step then cannot stretch or shrink any measured silence.
// Miss counting needs no such care — it advances only when a real ack
// timeout fires, and timers are step-immune by construction. The
// WallClockElapsed ablation (or a clock with no monotonic reading) falls
// back to differencing Now().
func (d *Detector) instant() time.Time {
	if !d.cfg.WallClockElapsed {
		if m, ok := clock.Monotonic(d.clk); ok {
			return monoEpoch.Add(m)
		}
	}
	return d.clk.Now()
}

// silenceTolerable reports whether an adaptive detector should ride out
// the current silence despite MaxMisses consecutive unanswered pings: the
// learned gap distribution must be mature, must score the silence below
// the suspicion threshold, and the MaxSilence hard cap must not have been
// reached. A fixed-threshold detector never tolerates.
func (d *Detector) silenceTolerable() bool {
	if !d.cfg.Adaptive || d.susp == nil || !d.susp.Ready() || !d.hasAck {
		return false
	}
	now := d.instant()
	if now.Sub(d.lastAck) >= d.cfg.MaxSilence {
		return false
	}
	return d.susp.Level(now) < d.cfg.SuspicionThreshold
}

// OnAck feeds a received ping acknowledgement into the detector. Acks for
// stale sequence numbers still count as proof of life.
func (d *Detector) OnAck(seq uint64) {
	if !d.running {
		return
	}
	if d.hasPending && seq == d.awaiting {
		d.hasPending = false
		if d.timeout != nil {
			d.timeout.Cancel()
			d.timeout = nil
		}
	}
	d.misses = 0
	d.alive = true
	if d.susp != nil {
		now := d.instant()
		d.susp.Observe(now)
		d.lastAck = now
		d.hasAck = true
	}
}
