package clocksync

import (
	"flag"
	"math/rand"
	"testing"
	"time"

	"rtpb/internal/resilience"
)

// seedFlag shifts the property test's fixed RNG seed (go test
// ./internal/clocksync -seed=N); 0 keeps the committed seed.
var seedFlag = flag.Int64("seed", 0, "offset added to the property tests' fixed RNG seeds")

var t0 = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// probe synthesizes the four timestamps of one exchange: the peer's
// clock runs `skew` ahead of ours, one-way delays are out/back, and the
// responder holds the echo for `hold`.
func probe(at time.Time, skew, out, back, hold time.Duration) (t1, t2, t3, t4 time.Time) {
	t1 = at
	t2 = at.Add(out).Add(skew)
	t3 = t2.Add(hold)
	t4 = at.Add(out).Add(hold).Add(back)
	return
}

func TestEstimatorRecoversSymmetricOffset(t *testing.T) {
	e := New(Config{})
	t1, t2, t3, t4 := probe(t0, 25*time.Millisecond, 2*time.Millisecond, 2*time.Millisecond, time.Millisecond)
	s, ok := e.AddSample(t1, t2, t3, t4)
	if !ok {
		t.Fatal("sample rejected")
	}
	if s.Offset != 25*time.Millisecond {
		t.Fatalf("Offset = %v, want 25ms (symmetric delays recover exactly)", s.Offset)
	}
	if s.RTT != 4*time.Millisecond {
		t.Fatalf("RTT = %v, want 4ms (hold time excluded)", s.RTT)
	}
	th, ok := e.Theta(t4)
	if !ok || th != 2*time.Millisecond {
		t.Fatalf("Theta = %v,%v, want 2ms (half RTT)", th, ok)
	}
}

func TestEstimatorThetaContainsTrueOffsetUnderAsymmetry(t *testing.T) {
	// Worst-case asymmetry: all delay on one leg. The estimate is wrong
	// by rtt/2, which is exactly what θ admits.
	const skew = 10 * time.Millisecond
	e := New(Config{})
	t1, t2, t3, t4 := probe(t0, skew, 6*time.Millisecond, 0, 0)
	s, _ := e.AddSample(t1, t2, t3, t4)
	th, _ := e.Theta(t4)
	if err := (s.Offset - skew).Abs(); err > th {
		t.Fatalf("estimate error %v exceeds θ %v", err, th)
	}
}

func TestEstimatorNoSampleMeansNoBound(t *testing.T) {
	e := New(Config{})
	if _, ok := e.Theta(t0); ok {
		t.Fatal("Theta reported a bound with no samples")
	}
	if r := e.Report(t0); r.Valid {
		t.Fatal("Report valid with no samples")
	}
}

func TestEstimatorRejectsNegativeRTT(t *testing.T) {
	e := New(Config{})
	// A backward step on the prober between send and receive makes the
	// apparent round trip negative.
	t1 := t0
	t2 := t0.Add(time.Millisecond)
	t3 := t2
	t4 := t0.Add(-time.Second)
	if _, ok := e.AddSample(t1, t2, t3, t4); ok {
		t.Fatal("negative-RTT sample accepted")
	}
	if e.accepted != 0 || e.rejected != 1 {
		t.Fatalf("samples = %d,%d, want 0,1", e.accepted, e.rejected)
	}
	if _, ok := e.Theta(t4); ok {
		t.Fatal("rejected sample produced a bound")
	}
}

func TestEstimatorPrefersTighterSamplesAndAges(t *testing.T) {
	e := New(Config{MaxDriftPPM: 1000})
	// A sloppy 20ms-RTT sample first.
	t1, t2, t3, t4 := probe(t0, 5*time.Millisecond, 10*time.Millisecond, 10*time.Millisecond, 0)
	e.AddSample(t1, t2, t3, t4)
	th0, _ := e.Theta(t4)
	if th0 != 10*time.Millisecond {
		t.Fatalf("θ = %v, want 10ms", th0)
	}
	// A tight 2ms-RTT sample 1s later replaces it.
	at := t0.Add(time.Second)
	t1, t2, t3, t4 = probe(at, 5*time.Millisecond, time.Millisecond, time.Millisecond, 0)
	e.AddSample(t1, t2, t3, t4)
	th1, _ := e.Theta(t4)
	if th1 != time.Millisecond {
		t.Fatalf("θ = %v, want 1ms after tighter sample", th1)
	}
	// With no further samples θ widens by the drift bound: 1000 ppm ⇒
	// 1ms per second of age.
	th2, _ := e.Theta(t4.Add(2 * time.Second))
	if want := 3 * time.Millisecond; th2 != want {
		t.Fatalf("θ = %v after 2s of aging, want %v", th2, want)
	}
	// A fresh loose sample does not replace a still-tighter aged one...
	t1, t2, t3, t4 = probe(t4.Add(time.Millisecond), 5*time.Millisecond, 8*time.Millisecond, 8*time.Millisecond, 0)
	e.AddSample(t1, t2, t3, t4)
	if th, _ := e.Theta(t4); th >= 8*time.Millisecond {
		t.Fatalf("loose fresh sample adopted over tight aged one (θ = %v)", th)
	}
}

func TestEstimatorFeedsLinkEstimator(t *testing.T) {
	link := resilience.NewEstimator(resilience.EstimatorConfig{})
	e := New(Config{Link: link})
	t1, t2, t3, t4 := probe(t0, 0, 3*time.Millisecond, 3*time.Millisecond, 0)
	e.AddSample(t1, t2, t3, t4)
	if link.SRTT() != 6*time.Millisecond {
		t.Fatalf("link SRTT = %v, want 6ms", link.SRTT())
	}
}

// TestEstimatorPropertyHonestBound fuzzes random skews, delays, and probe
// cadences and asserts the estimator's defining contract: whenever it
// reports a bound, the true offset lies within θ of the estimate.
func TestEstimatorPropertyHonestBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4242 + *seedFlag))
	for trial := 0; trial < 200; trial++ {
		skew := time.Duration(rng.Intn(100_000)-50_000) * time.Microsecond
		e := New(Config{MaxDriftPPM: 500})
		now := t0
		for p := 0; p < 20; p++ {
			now = now.Add(time.Duration(1+rng.Intn(500)) * time.Millisecond)
			out := time.Duration(rng.Intn(10_000)) * time.Microsecond
			back := time.Duration(rng.Intn(10_000)) * time.Microsecond
			hold := time.Duration(rng.Intn(1_000)) * time.Microsecond
			t1, t2, t3, t4 := probe(now, skew, out, back, hold)
			e.AddSample(t1, t2, t3, t4)
			th, ok := e.Theta(t4)
			if !ok {
				t.Fatalf("trial %d: no bound after an accepted sample", trial)
			}
			if err := (e.best.Offset - skew).Abs(); err > th {
				t.Fatalf("trial %d probe %d: |estimate−truth| = %v exceeds θ = %v",
					trial, p, err, th)
			}
		}
	}
}
