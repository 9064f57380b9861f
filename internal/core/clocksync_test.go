package core

import (
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
)

// TestClockSyncEstimatesUpstreamOffset runs a backup on a skewed clock
// (+30ms against the primary) with ClockSync enabled and drives the
// heartbeat cadence. The piggybacked probes must recover the offset
// exactly on the symmetric link (primary minus backup = -30ms) with a
// theta that honestly contains it.
func TestClockSyncEstimatesUpstreamOffset(t *testing.T) {
	var skewed *clock.SkewedClock
	c := newTestCluster(t, clusterOpts{
		seed: 71,
		link: netsim.LinkParams{Delay: ms(2)},
		mutateB: func(cfg *Config) {
			skewed = clock.NewSkewed(cfg.Clock)
			skewed.SetOffset(30 * time.Millisecond)
			cfg.Clock = skewed
			cfg.ClockSync = true
		},
	})
	for i := 0; i < 5; i++ {
		c.backup.SendPing()
		c.clk.RunFor(50 * time.Millisecond)
		rep, _ := c.backup.ClockSyncReport()
		if rep.Accepted != uint64(i+1) {
			t.Fatalf("after %d probes the estimator accepted %d samples", i+1, rep.Accepted)
		}
		if rep.RTT != 4*time.Millisecond {
			t.Fatalf("sample RTT = %v on a 2ms symmetric link, want 4ms", rep.RTT)
		}
	}
	rep, ok := c.backup.ClockSyncReport()
	if !ok || !rep.Valid {
		t.Fatalf("ClockSyncReport() = %+v, %v; want a valid report", rep, ok)
	}
	want := -30 * time.Millisecond
	if rep.Offset != want {
		t.Fatalf("estimated offset = %v, want exactly %v on a symmetric link", rep.Offset, want)
	}
	// Honest bound: the true offset lies within theta of the estimate.
	if diff := rep.Offset - want; diff > rep.Theta || -diff > rep.Theta {
		t.Fatalf("|estimate-truth| = %v exceeds theta %v", diff, rep.Theta)
	}
	if rep.Theta < 2*time.Millisecond || rep.Theta > 3*time.Millisecond {
		t.Fatalf("theta = %v, want rtt/2 = 2ms plus a sliver of drift aging", rep.Theta)
	}
	if rep.Accepted != 5 || rep.Rejected != 0 {
		t.Fatalf("accepted/rejected = %d/%d, want 5/0", rep.Accepted, rep.Rejected)
	}
	// The primary side has no estimator: it answers probes, it does not
	// send them, and ClockSync was not enabled there.
	if _, ok := c.primary.ClockSyncReport(); ok {
		t.Fatal("primary reported a clock-sync estimate with ClockSync disabled")
	}
}

// TestClockSyncDisabledByDefault pins that the zero-config path carries
// no clock-sync machinery: no estimator, no probe traffic.
func TestClockSyncDisabledByDefault(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 72, link: netsim.LinkParams{Delay: ms(2)}})
	c.backup.SendPing()
	c.clk.RunFor(50 * time.Millisecond)
	if _, ok := c.backup.ClockSyncReport(); ok {
		t.Fatal("ClockSyncReport() ok with ClockSync disabled")
	}
}

// rawOffsetClock shifts Now() by a mutable offset with no monotonicity
// latch — unlike SkewedClock it can hand out readings that go backwards,
// modelling an unconditioned wall clock (or instants compared across two
// different clocks). Timers delegate to the base clock unchanged.
type rawOffsetClock struct {
	clock.Clock
	offset time.Duration
}

func (c *rawOffsetClock) Now() time.Time { return c.Clock.Now().Add(c.offset) }

func (c *rawOffsetClock) ScheduleAt(at time.Time, fn func()) *clock.Event {
	return c.Clock.Schedule(at.Sub(c.Now()), fn)
}

// TestRTTSamplingSurvivesBackwardStep pins the sampleRTT guard: a
// backward wall-clock step between a ping's send and its ack makes the
// measured round trip negative. The guard must discard the measurement
// (keeping the delivery evidence) rather than clamp it to zero — a zero
// sample would seed SRTT at 0 and drag the estimate far below the real
// 4ms link for many exchanges afterwards.
func TestRTTSamplingSurvivesBackwardStep(t *testing.T) {
	var raw *rawOffsetClock
	c := newTestCluster(t, clusterOpts{
		seed: 73,
		link: netsim.LinkParams{Delay: ms(2)},
		mutateP: func(cfg *Config) {
			raw = &rawOffsetClock{Clock: cfg.Clock}
			cfg.Clock = raw
		},
	})
	// Ping 1: the clock steps back one second while the ack is in flight.
	c.primary.SendPing()
	c.clk.RunFor(ms(1))
	raw.offset = -time.Second
	c.clk.RunFor(ms(10))
	raw.offset = 0
	// Ping 2: a clean exchange.
	c.primary.SendPing()
	c.clk.RunFor(ms(10))

	st, ok := c.primary.PeerLink("backup:7000")
	if !ok {
		t.Fatal("no link stats for backup")
	}
	if st.Acks != 2 {
		t.Fatalf("acks = %d, want 2 (the stepped exchange still counts as delivered)", st.Acks)
	}
	// SRTT seeded by the clean exchange alone: exactly the 4ms round trip.
	// A zero-clamped first sample would leave SRTT at 0.5ms here.
	if st.SRTT != 4*time.Millisecond {
		t.Fatalf("SRTT = %v, want exactly 4ms (negative sample must be discarded, not clamped)", st.SRTT)
	}
}
