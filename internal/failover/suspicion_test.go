package failover

import (
	"testing"
	"time"

	"rtpb/internal/clock"
)

// jitterSchedule is a scripted peer: it acks the most recent ping at
// fixed absolute instants, simulating a live but heavily jittery link.
// The warmup gaps (≤80ms) can never chain MaxMisses=3 timeouts (death
// needs 90ms of post-ping silence), so both detector flavours survive
// while the adaptive one accumulates ≥8 gap samples; the storm gaps
// (≥140ms) always cover a full timeout chain regardless of ping phase
// (next ping ≤50ms after an ack, plus 3×30ms timeouts), so a fixed
// threshold is guaranteed to false-fail there.
var jitterGaps = []time.Duration{
	// Warmup: jittery but survivable; 10 acks → suspicion history ready.
	ms(30), ms(75), ms(28), ms(80), ms(32), ms(78), ms(27), ms(80), ms(30), ms(76),
	// Storm: silences long enough to exhaust a fixed MaxMisses budget.
	ms(140), ms(30), ms(145), ms(25), ms(140),
}

// suspicionLevel is the detector's suspicion now, 0 before its
// estimator has enough samples.
func suspicionLevel(d *Detector) float64 {
	if d.susp == nil || !d.susp.Ready() {
		return 0
	}
	return d.susp.Level(d.instant())
}

// runJitterPeer wires a detector to the scripted schedule and returns
// the time at which onDead fired (-1 if never) plus the detector.
func runJitterPeer(t *testing.T, cfg DetectorConfig, runFor time.Duration) (time.Duration, *Detector) {
	t.Helper()
	clk := clock.NewSim()
	var d *Detector
	var latest uint64
	seq := uint64(0)
	send := func() uint64 {
		seq++
		latest = seq
		return seq
	}
	var deadAt time.Duration = -1
	d, err := NewDetector(clk, cfg, send, func() {
		deadAt = clk.Now().Sub(clock.SimEpoch)
	})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Duration(0)
	for _, gap := range jitterGaps {
		at += gap
		clk.Schedule(at, func() { d.OnAck(latest) })
	}
	d.Start()
	clk.RunFor(runFor)
	return deadAt, d
}

// TestFixedThresholdFalseFailoverUnderJitter demonstrates the failure
// mode the adaptive layer exists for: under heavy ack jitter from a peer
// that never crashes, the fixed MaxMisses threshold exhausts during a
// jitter spike and declares the peer dead — a promotion would fire
// against a live primary.
func TestFixedThresholdFalseFailoverUnderJitter(t *testing.T) {
	fixed := DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 3}
	deadAt, _ := runJitterPeer(t, fixed, 2*time.Second)
	if deadAt < 0 {
		t.Fatal("fixed-threshold detector survived the jitter storm; the false-failover scenario no longer reproduces")
	}
	// Death must land inside the storm phase (after warmup), i.e. a
	// false positive triggered by jitter, not by the survivable warmup.
	warmup := time.Duration(0)
	for _, g := range jitterGaps[:10] {
		warmup += g
	}
	if deadAt < warmup {
		t.Fatalf("fixed detector died at %v, during the survivable warmup (ends %v)", deadAt, warmup)
	}
}

// TestAdaptiveSuspicionSuppressesFalseFailover runs the identical
// schedule against an adaptive detector: the learned inter-ack gap
// distribution is wide enough that the storm silences score below the
// suspicion threshold, so the peer rides through the jitter alive.
func TestAdaptiveSuspicionSuppressesFalseFailover(t *testing.T) {
	adaptive := DetectorConfig{
		Interval: ms(50), Timeout: ms(30), MaxMisses: 3,
		Adaptive: true,
	}
	total := time.Duration(0)
	for _, g := range jitterGaps {
		total += g
	}
	deadAt, d := runJitterPeer(t, adaptive, total+ms(10))
	if deadAt >= 0 {
		t.Fatalf("adaptive detector false-failed at %v under jitter (suspicion %.2f)", deadAt, suspicionLevel(d))
	}
	if !d.alive {
		t.Fatal("adaptive detector not alive after surviving the storm")
	}
	d.Stop()
}

// TestAdaptiveSuspicionStillDetectsRealCrash guards against the opposite
// failure: tolerance must not become blindness. After the same jittery
// history the peer goes permanently silent; the adaptive detector must
// declare death within the MaxSilence hard cap (default 8×Interval) plus
// one timeout of slack.
func TestAdaptiveSuspicionStillDetectsRealCrash(t *testing.T) {
	adaptive := DetectorConfig{
		Interval: ms(50), Timeout: ms(30), MaxMisses: 3,
		Adaptive: true,
	}
	lastAck := time.Duration(0)
	for _, g := range jitterGaps {
		lastAck += g
	}
	// Run far past the crash; the schedule simply stops acking.
	deadAt, _ := runJitterPeer(t, adaptive, lastAck+2*time.Second)
	if deadAt < 0 {
		t.Fatal("adaptive detector never declared the crashed peer dead")
	}
	maxSilence := 8 * ms(50)
	if limit := lastAck + maxSilence + ms(30); deadAt > limit {
		t.Fatalf("crash detected at %v, want ≤ %v (last ack %v + MaxSilence %v + one timeout)",
			deadAt, limit, lastAck, maxSilence)
	}
	if deadAt < lastAck+ms(90) {
		t.Fatalf("crash declared at %v, before even a fixed threshold could fire (last ack %v)", deadAt, lastAck)
	}
}
