package resilience

import (
	"testing"
	"time"
)

func TestEstimatorInitialRTO(t *testing.T) {
	e := NewEstimator(EstimatorConfig{InitialRTO: 40 * time.Millisecond})
	if got := e.RTO(); got != 40*time.Millisecond {
		t.Fatalf("RTO before samples = %v, want InitialRTO 40ms", got)
	}
}

func TestEstimatorConvergesToRTT(t *testing.T) {
	e := NewEstimator(EstimatorConfig{InitialRTO: 100 * time.Millisecond})
	for i := 0; i < 64; i++ {
		e.SampleRTT(4 * time.Millisecond)
	}
	if srtt := e.SRTT(); srtt != 4*time.Millisecond {
		t.Fatalf("srtt = %v, want 4ms after steady samples", srtt)
	}
	// With zero variance the RTO collapses to the MinRTO clamp.
	if rto := e.RTO(); rto > 10*time.Millisecond {
		t.Fatalf("RTO = %v, want well under the 100ms initial on a crisp 4ms link", rto)
	}
	if rto := e.RTO(); rto < 2*time.Millisecond {
		t.Fatalf("RTO = %v fell under MinRTO", rto)
	}
}

func TestEstimatorVarianceWidensRTO(t *testing.T) {
	crisp := NewEstimator(EstimatorConfig{})
	noisy := NewEstimator(EstimatorConfig{})
	for i := 0; i < 32; i++ {
		crisp.SampleRTT(10 * time.Millisecond)
		if i%2 == 0 {
			noisy.SampleRTT(2 * time.Millisecond)
		} else {
			noisy.SampleRTT(18 * time.Millisecond)
		}
	}
	if crisp.RTO() >= noisy.RTO() {
		t.Fatalf("crisp RTO %v should be below noisy RTO %v at equal mean", crisp.RTO(), noisy.RTO())
	}
}

func TestEstimatorCountsSamples(t *testing.T) {
	e := NewEstimator(EstimatorConfig{})
	if acks, losses := e.Samples(); acks != 0 || losses != 0 {
		t.Fatalf("initial samples = %d acks %d losses, want 0/0", acks, losses)
	}
	for i := 0; i < 50; i++ {
		e.SampleLoss()
	}
	for i := 0; i < 40; i++ {
		e.SampleAck()
	}
	for i := 0; i < 10; i++ {
		e.SampleRTT(time.Millisecond)
	}
	acks, losses := e.Samples()
	if acks != 50 || losses != 50 {
		t.Fatalf("samples = %d acks %d losses, want 50/50", acks, losses)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := NewBackoff(7)
	b.Cap = 100 * time.Millisecond
	if d := b.DelayFrom(10*time.Millisecond, 0); d < 10*time.Millisecond || d >= 12500*time.Microsecond {
		t.Fatalf("attempt 0 delay = %v, want base 10ms plus under a quarter", d)
	}
	if d := b.DelayFrom(10*time.Millisecond, 2); d < 40*time.Millisecond || d >= 50*time.Millisecond {
		t.Fatalf("attempt 2 delay = %v, want 40ms plus under a quarter", d)
	}
	if d := b.DelayFrom(10*time.Millisecond, 20); d != 100*time.Millisecond {
		t.Fatalf("attempt 20 delay = %v, want the 100ms cap", d)
	}
	// Huge attempt counts must not overflow into negative delays.
	if d := b.DelayFrom(10*time.Millisecond, 1<<30); d != 100*time.Millisecond {
		t.Fatalf("huge attempt delay = %v, want the cap", d)
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	a := NewBackoff(42)
	b := NewBackoff(42)
	for i := 0; i < 16; i++ {
		da := a.DelayFrom(10*time.Millisecond, i%4)
		db := b.DelayFrom(10*time.Millisecond, i%4)
		if da != db {
			t.Fatalf("attempt %d: same-seed backoffs diverged (%v vs %v)", i, da, db)
		}
	}
	c := NewBackoff(43)
	diverged := false
	a2 := NewBackoff(42)
	for i := 0; i < 16; i++ {
		if a2.DelayFrom(10*time.Millisecond, 1) != c.DelayFrom(10*time.Millisecond, 1) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	b := NewBackoff(9)
	base := 10 * time.Millisecond
	for i := 0; i < 100; i++ {
		d := b.DelayFrom(base, 1)
		if d < 20*time.Millisecond || d >= 25*time.Millisecond {
			t.Fatalf("jittered delay %v outside [20ms, 25ms)", d)
		}
	}
}

func TestSuspicionTracksGapDistribution(t *testing.T) {
	start := time.Unix(0, 0)
	s := NewSuspicion()
	at := start
	for i := 0; i < 20; i++ {
		s.Observe(at)
		at = at.Add(50 * time.Millisecond)
	}
	if !s.Ready() {
		t.Fatal("suspicion not ready after 20 observations")
	}
	// A silence comparable to the usual gap is unremarkable...
	if lvl := s.Level(at.Add(10 * time.Millisecond)); lvl > 3 {
		t.Fatalf("level after a normal gap = %v, want low", lvl)
	}
	// ...while a silence many times the historical gap is damning.
	if lvl := s.Level(at.Add(500 * time.Millisecond)); lvl < 5 {
		t.Fatalf("level after 10x silence = %v, want high", lvl)
	}
}

func TestSuspicionJitteryHistoryTolerant(t *testing.T) {
	start := time.Unix(0, 0)
	crisp := NewSuspicion()
	jittery := NewSuspicion()
	at, jat := start, start
	gaps := []time.Duration{20, 180, 30, 160, 25, 170, 40, 150, 20, 190, 35, 145}
	for i := 0; i < len(gaps); i++ {
		crisp.Observe(at)
		at = at.Add(50 * time.Millisecond)
		jittery.Observe(jat)
		jat = jat.Add(gaps[i] * time.Millisecond)
	}
	silence := 220 * time.Millisecond
	if c, j := crisp.Level(at.Add(silence)), jittery.Level(jat.Add(silence)); c <= j {
		t.Fatalf("crisp link should be more suspicious of a %v silence (crisp %v <= jittery %v)", silence, c, j)
	}
}

func TestSuspicionReset(t *testing.T) {
	s := NewSuspicion()
	at := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		s.Observe(at)
		at = at.Add(10 * time.Millisecond)
	}
	s.Reset()
	if s.Ready() {
		t.Fatal("ready after reset")
	}
	if lvl := s.Level(at.Add(time.Hour)); lvl != 0 {
		t.Fatalf("level after reset = %v, want 0", lvl)
	}
}
