package failover

import (
	"testing"
	"time"

	"rtpb/internal/clock"
)

// runClockStepScenario drives an adaptive detector on a skewed clock
// through: a healthy ack history, then a 300ms ack outage during which
// the node's wall clock steps forward one second. The outage is well
// inside MaxSilence (500ms) and scores far below the suspicion threshold,
// so a correct detector rides it out; one that measures silence by
// differencing wall-clock readings sees a 1.3s silence and declares a
// live peer dead. It reports whether the detector killed the peer.
func runClockStepScenario(t *testing.T, wallClockElapsed bool) bool {
	t.Helper()
	sim := clock.NewSim()
	skewed := clock.NewSkewed(sim)
	cfg := DetectorConfig{
		Interval:           ms(50),
		Timeout:            ms(30),
		MaxMisses:          3,
		Adaptive:           true,
		SuspicionThreshold: 50,
		MaxSilence:         ms(500),
		WallClockElapsed:   wallClockElapsed,
	}
	var d *Detector
	var seq uint64
	acking := true
	dead := false
	send := func() uint64 {
		seq++
		s := seq
		if acking {
			skewed.Schedule(ms(2), func() { d.OnAck(s) })
		}
		return s
	}
	d, err := NewDetector(skewed, cfg, send, func() { dead = true })
	if err != nil {
		t.Fatal(err)
	}
	d.Start()

	// Build a mature ack history (20 gaps at the 50ms interval).
	sim.RunFor(time.Second)
	if dead {
		t.Fatal("detector died during healthy history build")
	}

	// Ack outage begins; 100ms in, the wall clock steps forward 1s.
	acking = false
	sim.RunFor(100 * time.Millisecond)
	skewed.Step(time.Second)
	sim.RunFor(200 * time.Millisecond)

	// Outage ends after 300ms of true silence.
	acking = true
	sim.RunFor(500 * time.Millisecond)
	return dead
}

// TestDetectorRidesOutClockStep pins the hardened behaviour: measuring
// silence on the monotonic timebase, a forward wall-clock step cannot
// manufacture a failover from a tolerable outage.
func TestDetectorRidesOutClockStep(t *testing.T) {
	if runClockStepScenario(t, false) {
		t.Fatal("hardened detector declared a live peer dead across a wall-clock step")
	}
}

// TestDetectorWallClockElapsedFalseFailover pins the regression the
// hardening fixes: with the WallClockElapsed ablation the identical
// outage-plus-step kills a live peer. If this test starts failing, the
// ablation no longer demonstrates the hazard and the chaos scenario's
// control arm is meaningless.
func TestDetectorWallClockElapsedFalseFailover(t *testing.T) {
	if !runClockStepScenario(t, true) {
		t.Fatal("WallClockElapsed ablation did not reproduce the false failover")
	}
}

// TestDetectorBackwardStepHarmless audits the remaining elapsed-time
// sites against a backward step: the suspicion scorer's gap accounting
// clamps negative gaps, timers are base-time anchored, so a backward
// step during healthy traffic must neither kill the peer nor wedge the
// ping exchange.
func TestDetectorBackwardStepHarmless(t *testing.T) {
	for _, wallClock := range []bool{false, true} {
		sim := clock.NewSim()
		skewed := clock.NewSkewed(sim)
		cfg := DetectorConfig{
			Interval: ms(50), Timeout: ms(30), MaxMisses: 3,
			Adaptive: true, SuspicionThreshold: 8, WallClockElapsed: wallClock,
		}
		var d *Detector
		var seq uint64
		dead := false
		send := func() uint64 {
			seq++
			s := seq
			skewed.Schedule(ms(2), func() { d.OnAck(s) })
			return s
		}
		d, err := NewDetector(skewed, cfg, send, func() { dead = true })
		if err != nil {
			t.Fatal(err)
		}
		d.Start()
		sim.RunFor(time.Second)
		skewed.Step(-5 * time.Second)
		sim.RunFor(time.Second)
		if dead {
			t.Fatalf("wallClock=%v: backward step killed a healthy peer", wallClock)
		}
		if lvl := suspicionLevel(d); lvl < 0 {
			t.Fatalf("wallClock=%v: negative suspicion level %v after backward step", wallClock, lvl)
		}
		if seq < 30 {
			t.Fatalf("wallClock=%v: ping exchange wedged after backward step (%d pings)", wallClock, seq)
		}
	}
}
