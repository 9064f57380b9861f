package gateway

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/shard"
	"rtpb/internal/temporal"
)

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// easySpec is cheap enough that broadcast behaviour, not admission
// capacity, dominates the test.
func easySpec(name string) core.ObjectSpec {
	return core.ObjectSpec{
		Name:         name,
		Size:         64,
		UpdatePeriod: ms(20),
		Constraint:   temporal.ExternalConstraint{DeltaP: ms(20), DeltaB: ms(120)},
	}
}

// recordSink captures delivered frames; fail (when set) simulates a
// slow consumer by rejecting deliveries.
type recordSink struct {
	frames []Frame
	fail   func() bool
	closed bool
}

func (r *recordSink) Deliver(f Frame) error {
	if r.fail != nil && r.fail() {
		return errors.New("sink backlogged")
	}
	r.frames = append(r.frames, f)
	return nil
}

func (r *recordSink) Close() { r.closed = true }

// newClusterGateway builds a sim cluster plus a gateway fronting it on
// the cluster's own clock.
func newClusterGateway(t *testing.T, ccfg shard.Config, gcfg Config) (*shard.Cluster, *Gateway) {
	t.Helper()
	c, err := shard.NewCluster(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	gcfg.Clock = c.Clock()
	gcfg.Backend = ClusterBackend{Cluster: c}
	gw, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	return c, gw
}

// place admits an object and pins it to one shard so tests control the
// hot/quiet split deterministically.
func place(t *testing.T, c *shard.Cluster, spec core.ObjectSpec, want int) {
	t.Helper()
	idx, _, err := c.Place(spec)
	if err != nil {
		t.Fatalf("place %q: %v", spec.Name, err)
	}
	if idx != want {
		if err := c.Migrate(spec.Name, want); err != nil {
			t.Fatalf("migrate %q to shard %d: %v", spec.Name, want, err)
		}
	}
}

// TestBroadcastCertificateFreshness is the group-broadcast property
// test: under zero loss, every frame a subscribed session observes
// carries age ≤ the admitted (mode-effective) δ_B plus one broadcast
// period, per-object sequence numbers are strictly monotone per session
// (coalescing can never deliver stale-after-fresh), and the certificate
// fan-in to the replica tier is one read per object per tick no matter
// how many sessions subscribe.
func TestBroadcastCertificateFreshness(t *testing.T) {
	const period = 20 // broadcast period, ms
	c, gw := newClusterGateway(t,
		shard.Config{Shards: 2, Seed: 11},
		Config{BroadcastPeriod: ms(period)})

	objects := []string{"alt", "speed", "heading", "fuel"}
	for i, name := range objects {
		place(t, c, easySpec(name), i%2)
	}
	gw.Bind("cockpit", "alt", "speed")
	gw.Bind("engine", "heading", "fuel")

	sinks := make([]*recordSink, 0, 20)
	for i := 0; i < 20; i++ {
		sink := &recordSink{}
		s, err := gw.Connect(sink)
		if err != nil {
			t.Fatalf("connect %d: %v", i, err)
		}
		group := "cockpit"
		if i%2 == 1 {
			group = "engine"
		}
		if err := gw.Subscribe(s, group); err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, sink)
	}

	for _, name := range objects {
		c.WriteEvery(name, ms(10))
	}
	c.RunFor(time.Second)

	for i, sink := range sinks {
		if len(sink.frames) == 0 {
			t.Fatalf("session %d received no frames", i)
		}
		lastSeq := map[string]uint64{}
		lastVersion := map[string]time.Time{}
		for _, f := range sink.frames {
			if f.Cert.Bound <= 0 {
				t.Fatalf("session %d: frame for %q carries no admitted bound", i, f.Object)
			}
			if limit := f.Cert.Bound + ms(period); f.Cert.Age > limit {
				t.Fatalf("session %d: %q frame age %v exceeds δ_B+period %v",
					i, f.Object, f.Cert.Age, limit)
			}
			if f.Seq <= lastSeq[f.Object] {
				t.Fatalf("session %d: %q seq %d after %d (stale-after-fresh)",
					i, f.Object, f.Seq, lastSeq[f.Object])
			}
			if f.Cert.Version.Before(lastVersion[f.Object]) {
				t.Fatalf("session %d: %q version regressed", i, f.Object)
			}
			lastSeq[f.Object] = f.Seq
			lastVersion[f.Object] = f.Cert.Version
		}
	}

	// Fan-in bound: the broadcast loop reads each object at most once per
	// tick, so total certificate reads never exceed objects × ticks —
	// independent of the 20 subscribed sessions.
	st := gw.Stats()
	reads := gw.CertReads(0) + gw.CertReads(1)
	if maxReads := uint64(len(objects)) * st.Broadcasts; reads > maxReads {
		t.Fatalf("certificate fan-in %d exceeds objects×ticks %d", reads, maxReads)
	}
	if reads == 0 || st.Delivered == 0 {
		t.Fatalf("no broadcast activity: reads=%d delivered=%d", reads, st.Delivered)
	}
}

// TestSlowConsumerCoalescing pins the freshest-image-wins contract: a
// session whose sink backlogs is slow-pathed — frames coalesce, one
// pending image per object — and on recovery it receives only the
// newest image, never a stale one, never an unbounded queue.
func TestSlowConsumerCoalescing(t *testing.T) {
	c, gw := newClusterGateway(t,
		shard.Config{Shards: 1, Seed: 3},
		Config{BroadcastPeriod: ms(10)})
	place(t, c, easySpec("alt"), 0)
	gw.Bind("g", "alt")

	clk := c.Clock()
	start := clk.Now()
	failing := func() bool {
		since := clk.Now().Sub(start)
		return since > ms(200) && since < ms(500)
	}
	sink := &recordSink{fail: failing}
	s, err := gw.Connect(sink)
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Subscribe(s, "g"); err != nil {
		t.Fatal(err)
	}
	c.WriteEvery("alt", ms(5))
	c.RunFor(350 * time.Millisecond) // inside the outage
	if !s.slow {
		t.Fatal("session never entered the slow path")
	}
	c.RunFor(650 * time.Millisecond)

	st := gw.Stats() // the one session's counts
	if st.Coalesced == 0 {
		t.Fatal("no frames were coalesced while slow")
	}
	// The ~300ms outage spans ~30 broadcast ticks; coalescing must have
	// collapsed them into far fewer deliveries than a queue would hold.
	if st.Delivered+10 > st.Delivered+st.Coalesced {
		t.Fatalf("coalescing absorbed too little: delivered=%d coalesced=%d",
			st.Delivered, st.Coalesced)
	}
	var last uint64
	jumped := false
	for _, f := range sink.frames {
		if f.Seq <= last {
			t.Fatalf("stale-after-fresh: seq %d after %d", f.Seq, last)
		}
		if last != 0 && f.Seq > last+1 {
			jumped = true // coalescing skipped intermediate images
		}
		last = f.Seq
	}
	if !jumped {
		t.Fatal("delivered sequence has no gap: coalescing never skipped a stale image")
	}
}

// shedCluster builds a 2-shard cluster with an aggressive governor and
// a client-write hotspot pinned to shard 0 that provably overloads it,
// plus a quiet object on shard 1.
func shedCluster(t *testing.T) (*shard.Cluster, *Gateway) {
	c, gw := newClusterGateway(t,
		shard.Config{
			Shards: 2,
			Seed:   7,
			// Expensive client ops give the hotspot real CPU weight.
			Costs: core.CostModel{
				ClientOp:   2 * time.Millisecond,
				UpdateSend: 400 * time.Microsecond,
				PerByte:    2 * time.Nanosecond,
			},
			Governor: core.GovernorConfig{
				Enable:           true,
				Interval:         ms(10),
				DemoteStaleness:  0.15,
				PromoteStaleness: 0.05,
				// Effectively never promote: the test wants a stable shed
				// plateau, not the recovery ramp (chaos covers that).
				PromoteHold: 100000,
			},
			// The hotspot must be admissible for the governor to have
			// something real to shed.
			DisableAdmissionControl: true,
		},
		Config{BroadcastPeriod: ms(20)})

	place(t, c, easySpec("hot0"), 0)
	place(t, c, easySpec("hot1"), 0)
	place(t, c, easySpec("quiet"), 1)
	gw.Bind("hot", "hot0", "hot1")
	gw.Bind("quiet", "quiet")

	// Steady quiet-side traffic, and a hotspot write storm on shard 0:
	// 2ms of CPU per write, two objects written every 1ms — a sustained
	// 4x overload client writes alone impose, which shedding update
	// transmissions cannot relieve. The ladder must bottom out at shed
	// and stay there.
	c.WriteEvery("quiet", ms(20))
	c.WriteEvery("hot0", ms(1))
	c.WriteEvery("hot1", ms(1))
	return c, gw
}

// TestShedModeBackpressure is the admission-aware backpressure test: a
// shard whose governor sheds stops receiving gateway broadcast fan-in
// entirely and new sessions are refused, while the quiet shard's
// broadcasts continue and writes — including to the shedding shard —
// are still forwarded.
func TestShedModeBackpressure(t *testing.T) {
	c, gw := shedCluster(t)

	hotSink, quietSink := &recordSink{}, &recordSink{}
	for group, sink := range map[string]*recordSink{"hot": hotSink, "quiet": quietSink} {
		s, err := gw.Connect(sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.Subscribe(s, group); err != nil {
			t.Fatal(err)
		}
	}

	// Drive the cluster until shard 0's governor sheds.
	deadline := 3 * time.Second
	var elapsed time.Duration
	for ; elapsed < deadline && !c.Health(0).Shedding(); elapsed += ms(50) {
		c.RunFor(ms(50))
	}
	if !c.Health(0).Shedding() {
		t.Fatalf("shard 0 never shed under the hotspot (health %+v)", c.Health(0))
	}
	if got := gw.Mode(); got != Shed {
		t.Fatalf("gateway mode = %v with a shedding shard, want Shed", got)
	}

	// New sessions are refused while shedding.
	if _, err := gw.Connect(&recordSink{}); !errors.Is(err, ErrShedding) {
		t.Fatalf("Connect under shed = %v, want ErrShedding", err)
	}
	rejected := gw.Stats().Rejected
	if rejected == 0 {
		t.Fatal("shed connection not counted as rejected")
	}

	// The shed shard stops receiving broadcast fan-in: certificate reads
	// against shard 0 freeze while shard 1's keep growing.
	reads0, reads1 := gw.CertReads(0), gw.CertReads(1)
	quietBefore := len(quietSink.frames)
	c.RunFor(ms(300))
	if !c.Health(0).Shedding() {
		t.Fatalf("shard 0 left shed during the probe window (health %+v)", c.Health(0))
	}
	if got := gw.CertReads(0); got != reads0 {
		t.Fatalf("shed shard still receives broadcast fan-in: certificate reads %d -> %d", reads0, got)
	}
	if got := gw.CertReads(1); got <= reads1 {
		t.Fatalf("quiet shard's broadcast stalled: certificate reads stuck at %d", got)
	}
	if len(quietSink.frames) <= quietBefore {
		t.Fatal("quiet group's sessions stopped receiving frames")
	}
	if gw.Stats().DroppedShed == 0 {
		t.Fatal("no frames recorded as shed-dropped")
	}

	// Writes are never shed by the gateway: a write to the overloaded
	// shard is still forwarded and accepted. The hotspot writers are
	// stopped first so the probe write's completion callback isn't stuck
	// behind seconds of simulated CPU backlog (PromoteHold is pinned high
	// enough that the shard stays shed regardless).
	c.StopWriters()
	delivered := false
	if err := gw.Write("hot0", []byte("still-writable"), func(_ time.Duration, err error) {
		if err != nil {
			t.Errorf("write to shed shard failed: %v", err)
		}
		delivered = true
	}); err != nil {
		t.Fatalf("gateway refused a write under shed: %v", err)
	}
	c.RunFor(8 * time.Second)
	if !delivered {
		t.Fatal("write to shed shard never completed")
	}
	if !c.Health(0).Shedding() {
		t.Fatalf("shard 0 left shed after writers stopped (health %+v)", c.Health(0))
	}
}

// TestSessionLimitAndPlacementHold covers the two non-governor shed
// triggers: the session cap, and the placer-rejection hold window.
func TestSessionLimitAndPlacementHold(t *testing.T) {
	c, gw := newClusterGateway(t,
		shard.Config{Shards: 1, Seed: 5},
		Config{BroadcastPeriod: ms(20)})

	for i := 0; i < maxSessions; i++ {
		if _, err := gw.Connect(&recordSink{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := gw.Connect(&recordSink{}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("Connect over cap = %v, want ErrSessionLimit", err)
	}

	// An impossible spec must be rejected by admission; the rejection
	// arms the shed hold even though no governor is involved.
	bad := core.ObjectSpec{
		Name:         "impossible",
		Size:         64,
		UpdatePeriod: time.Microsecond,
		Constraint:   temporal.ExternalConstraint{DeltaP: time.Microsecond, DeltaB: 2 * time.Microsecond},
	}
	if _, _, err := gw.Place(bad); err == nil {
		t.Fatal("impossible spec was admitted")
	}
	if got := gw.Mode(); got != Shed {
		t.Fatalf("mode after placement rejection = %v, want Shed", got)
	}
	c.RunFor(ms(600))
	if got := gw.Mode(); got != Normal {
		t.Fatalf("mode after hold expiry = %v, want Normal", got)
	}
}

// TestGatewayCloseClosesSessions pins teardown: closing the gateway
// closes every session sink and stops the broadcast tick.
func TestGatewayCloseClosesSessions(t *testing.T) {
	c, gw := newClusterGateway(t,
		shard.Config{Shards: 1, Seed: 2},
		Config{BroadcastPeriod: ms(20)})
	place(t, c, easySpec("alt"), 0)
	gw.Bind("g", "alt")
	sinks := []*recordSink{{}, {}}
	for _, sink := range sinks {
		s, err := gw.Connect(sink)
		if err != nil {
			t.Fatal(err)
		}
		if err := gw.Subscribe(s, "g"); err != nil {
			t.Fatal(err)
		}
	}
	gw.Close()
	for i, sink := range sinks {
		if !sink.closed {
			t.Fatalf("session %d's sink not closed", i)
		}
	}
	if _, err := gw.Connect(&recordSink{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Connect after Close = %v, want ErrClosed", err)
	}
	ticks := gw.Stats().Broadcasts
	c.RunFor(ms(200))
	if got := gw.Stats().Broadcasts; got != ticks {
		t.Fatalf("broadcast tick survived Close: %d -> %d", ticks, got)
	}
}

// TestDeterministicBroadcastOrder pins the replay property the chaos
// harness depends on: two identically-seeded cluster+gateway runs
// deliver byte-identical frame streams.
func TestDeterministicBroadcastOrder(t *testing.T) {
	run := func() []string {
		c, gw := newClusterGateway(t,
			shard.Config{Shards: 2, Seed: 9},
			Config{BroadcastPeriod: ms(20)})
		for i, name := range []string{"a", "b", "c"} {
			place(t, c, easySpec(name), i%2)
		}
		gw.Bind("g", "a", "b", "c")
		sinks := make([]*recordSink, 6)
		for i := range sinks {
			sinks[i] = &recordSink{}
			s, err := gw.Connect(sinks[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := gw.Subscribe(s, "g"); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range []string{"a", "b", "c"} {
			c.WriteEvery(name, ms(10))
		}
		c.RunFor(500 * time.Millisecond)
		var out []string
		for i, sink := range sinks {
			for _, f := range sink.frames {
				out = append(out, fmt.Sprintf("%d %s %s %d %s %v %v",
					i, f.Group, f.Object, f.Seq, f.Cert.Version.Format(time.RFC3339Nano),
					f.Cert.Age, f.Cert.Bound))
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no frames recorded")
	}
	if len(a) != len(b) {
		t.Fatalf("replay diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at frame %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}
