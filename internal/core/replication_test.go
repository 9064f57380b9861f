package core

import (
	"fmt"
	"testing"
	"time"

	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
)

func TestEndToEndReplication(t *testing.T) {
	c := newTestCluster(t, clusterOpts{
		seed: 1,
		link: netsim.LinkParams{Delay: ms(2)},
	})
	c.registerOK(t, spec("alt", ms(40), ms(50), ms(200)))

	c.primary.ClientWrite("alt", []byte("9000ft"), nil)
	c.clk.RunFor(200 * time.Millisecond)

	got, version, ok := c.backup.Value("alt")
	if !ok {
		t.Fatal("backup has no value for alt")
	}
	if string(got) != "9000ft" {
		t.Fatalf("backup value = %q", got)
	}
	pv, pver, _ := c.primary.Value("alt")
	if string(pv) != "9000ft" || !pver.Equal(version) {
		t.Fatalf("primary/backup versions differ: %v vs %v", pver, version)
	}
}

func TestClientWriteResponseTime(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 2, link: netsim.LinkParams{Delay: ms(2)}})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))
	var lat time.Duration
	done := false
	c.primary.ClientWrite("x", []byte("v"), func(l time.Duration, err error) {
		if err != nil {
			t.Fatalf("write error: %v", err)
		}
		lat, done = l, true
	})
	c.clk.RunFor(ms(10))
	if !done {
		t.Fatal("write never completed")
	}
	// Response time = CPU cost of the client op on an idle server.
	want := DefaultCosts().clientCost(1)
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
}

func TestClientWriteUnknownObject(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 3, link: netsim.LinkParams{Delay: ms(2)}})
	gotErr := false
	c.primary.ClientWrite("ghost", []byte("v"), func(_ time.Duration, err error) {
		gotErr = err != nil
	})
	c.clk.RunFor(ms(5))
	if !gotErr {
		t.Fatal("write to unregistered object succeeded")
	}
}

func TestUpdatesFollowAdmittedPeriod(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 4, link: netsim.LinkParams{Delay: ms(2)}})
	d := c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))

	var sends []time.Time
	c.primary.OnSend = func(_ uint32, _ string, _ uint64, _ time.Time) {
		sends = append(sends, c.clk.Now())
	}
	stop := c.writeEvery("x", ms(40), func(i int) []byte { return []byte{byte(i)} })
	defer stop.Stop()
	c.clk.RunFor(time.Second)

	if len(sends) < 5 {
		t.Fatalf("only %d update transmissions in 1s", len(sends))
	}
	// Gaps between consecutive sends track the admitted period (the send
	// instant includes the CPU cost, identical each time).
	for i := 1; i < len(sends); i++ {
		gap := sends[i].Sub(sends[i-1])
		if diff := gap - d.UpdatePeriod; diff < -ms(2) || diff > ms(2) {
			t.Fatalf("send gap %v deviates from period %v", gap, d.UpdatePeriod)
		}
	}
}

func TestBackupExternalConsistencyNoLoss(t *testing.T) {
	// With no loss and the Theorem 5-derived update period, the backup's
	// external temporal consistency must hold throughout the run.
	c := newTestCluster(t, clusterOpts{seed: 5, link: netsim.LinkParams{Delay: ms(2), Jitter: ms(1)}})
	s := spec("x", ms(40), ms(50), ms(200))
	c.registerOK(t, s)

	mon := temporal.NewMonitor()
	mon.TrackExternal("backup", "x", s.Constraint.DeltaB)
	mon.TrackExternal("primary", "x", s.Constraint.DeltaP)
	c.backup.OnApply = func(_ uint32, name string, _ uint32, _ uint64, version, at time.Time) {
		mon.RecordUpdate("backup", name, version, at)
	}
	c.primary.OnClientDone = func(name string, _ time.Duration) {
		mon.RecordUpdate("primary", name, c.clk.Now(), c.clk.Now())
	}

	stop := c.writeEvery("x", ms(40), func(i int) []byte { return []byte{byte(i)} })
	c.clk.RunFor(5 * time.Second)
	stop.Stop()
	mon.FinishAt(c.clk.Now())

	for _, site := range []string{"primary", "backup"} {
		r, ok := mon.ExternalReport(site, "x")
		if !ok {
			t.Fatalf("no %s report", site)
		}
		if r.Updates < 10 {
			t.Fatalf("%s saw only %d updates", site, r.Updates)
		}
		if !r.Consistent() {
			t.Fatalf("%s temporal consistency violated: %v", site, r)
		}
	}
}

func TestGapDetectionTriggersRetransmission(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 6, link: netsim.LinkParams{Delay: ms(2)}})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))

	gaps := 0
	c.backup.OnGap = func(_ uint32, have, got uint64) {
		gaps++
		if got <= have+1 {
			t.Fatalf("gap callback for non-gap: have=%d got=%d", have, got)
		}
	}
	retransmits := 0
	c.primary.OnRetransmitRequest = func(uint32) { retransmits++ }

	stop := c.writeEvery("x", ms(40), func(i int) []byte { return []byte{byte(i)} })
	defer stop.Stop()
	c.clk.RunFor(500 * time.Millisecond) // lossless warmup

	// Now lose everything for a while, then heal: the backup must detect
	// the hole on the next delivery and ask for retransmission.
	c.net.Partition("primary", "backup")
	c.clk.RunFor(500 * time.Millisecond)
	c.net.Heal("primary", "backup")
	c.clk.RunFor(500 * time.Millisecond)

	if gaps == 0 {
		t.Fatal("no gap detected after loss burst")
	}
	if retransmits == 0 {
		t.Fatal("no retransmission request reached the primary")
	}
	got, _, ok := c.backup.Value("x")
	if !ok || len(got) != 1 {
		t.Fatalf("backup value missing after heal: %v", got)
	}
}

func TestDuplicatesAndStaleUpdatesIgnored(t *testing.T) {
	c := newTestCluster(t, clusterOpts{
		seed: 7,
		link: netsim.LinkParams{Delay: ms(2), Jitter: ms(3), DuplicateProb: 0.5},
	})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))

	var versions []time.Time
	c.backup.OnApply = func(_ uint32, _ string, _ uint32, _ uint64, version, _ time.Time) {
		versions = append(versions, version)
	}
	stop := c.writeEvery("x", ms(20), func(i int) []byte { return []byte{byte(i)} })
	defer stop.Stop()
	c.clk.RunFor(2 * time.Second)

	if len(versions) < 10 {
		t.Fatalf("too few applies: %d", len(versions))
	}
	for i := 1; i < len(versions); i++ {
		if versions[i].Before(versions[i-1]) {
			t.Fatalf("applied version went backwards at %d: %v < %v",
				i, versions[i], versions[i-1])
		}
	}
}

func TestRegistrationSurvivesLoss(t *testing.T) {
	// Even at 60% loss the registration retry loop must eventually
	// propagate the object to the backup.
	c := newTestCluster(t, clusterOpts{
		seed: 8,
		link: netsim.LinkParams{Delay: ms(2), LossProb: 0.6},
	})
	d := c.primary.Register(spec("x", ms(40), ms(50), ms(200)))
	if !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	c.clk.RunFor(2 * time.Second)
	if c.backup.Objects() != 1 {
		t.Fatalf("backup knows %d objects, want 1", c.backup.Objects())
	}
	specs := c.backup.Specs()
	if len(specs) != 1 || specs[0].Name != "x" || specs[0].Constraint.DeltaB != ms(200) {
		t.Fatalf("backup specs = %+v", specs)
	}
}

func TestRegistrationArrivingAfterStateFillsSpec(t *testing.T) {
	// If an update or state transfer outruns the registration (possible
	// under loss: the Register was dropped, the Update got through), the
	// backup creates a nameless placeholder. The retried registration
	// must later install the spec so Value-by-name works.
	c := newTestCluster(t, clusterOpts{seed: 61, link: netsim.LinkParams{Delay: ms(2)}})
	// Drop primary→backup traffic during registration only.
	c.net.Partition("primary", "backup")
	d := c.primary.Register(spec("x", ms(40), ms(50), ms(200)))
	if !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	c.primary.ClientWrite("x", []byte("v"), nil)
	c.clk.RunFor(ms(30))
	c.net.Heal("primary", "backup")
	// Updates flow immediately; registration retries land within ~100ms.
	c.clk.RunFor(500 * time.Millisecond)
	v, _, ok := c.backup.Value("x")
	if !ok || string(v) != "v" {
		t.Fatalf("backup Value by name = %q ok=%v after late registration", v, ok)
	}
	specs := c.backup.Specs()
	if len(specs) != 1 || specs[0].Name != "x" {
		t.Fatalf("backup specs = %+v", specs)
	}
}

func TestCompressedSchedulingSendsFasterThanNormal(t *testing.T) {
	count := func(mode SchedulingMode) int {
		c := newTestCluster(t, clusterOpts{
			seed: 9,
			link: netsim.LinkParams{Delay: ms(2)},
			mutateP: func(cfg *Config) {
				cfg.Scheduling = mode
			},
		})
		c.registerOK(t, spec("x", ms(40), ms(50), ms(400)))
		sends := 0
		c.primary.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
		stop := c.writeEvery("x", ms(40), func(i int) []byte { return []byte{byte(i)} })
		defer stop.Stop()
		c.clk.RunFor(2 * time.Second)
		return sends
	}
	normal := count(ScheduleNormal)
	compressed := count(ScheduleCompressed)
	if compressed <= 4*normal {
		t.Fatalf("compressed sends %d not ≫ normal %d", compressed, normal)
	}
}

func TestCompressedSchedulingKeepsClientLatencyBounded(t *testing.T) {
	c := newTestCluster(t, clusterOpts{
		seed: 10,
		link: netsim.LinkParams{Delay: ms(2)},
		mutateP: func(cfg *Config) {
			cfg.Scheduling = ScheduleCompressed
		},
	})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(400)))
	var worst time.Duration
	c.primary.OnClientDone = func(_ string, lat time.Duration) {
		if lat > worst {
			worst = lat
		}
	}
	stop := c.writeEvery("x", ms(40), func(i int) []byte { return []byte{byte(i)} })
	defer stop.Stop()
	c.clk.RunFor(2 * time.Second)
	// A client write can wait behind at most one non-preemptive update
	// transmission plus its own cost.
	bound := DefaultCosts().sendCost(1) + DefaultCosts().clientCost(1) + ms(1)
	if worst > bound {
		t.Fatalf("worst client latency %v exceeds bound %v under compressed scheduling", worst, bound)
	}
}

func TestSetBackupAliveStopsTransmissions(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 11, link: netsim.LinkParams{Delay: ms(2)}})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))
	sends := 0
	c.primary.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
	stop := c.writeEvery("x", ms(40), func(i int) []byte { return []byte{byte(i)} })
	defer stop.Stop()
	c.clk.RunFor(500 * time.Millisecond)
	base := sends
	if base == 0 {
		t.Fatal("no sends during warmup")
	}
	c.primary.SetBackupAlive(false)
	c.clk.RunFor(500 * time.Millisecond)
	if sends != base {
		t.Fatalf("%d transmissions while backup declared dead", sends-base)
	}
	c.primary.SetBackupAlive(true) // triggers a state transfer + resumes
	c.clk.RunFor(500 * time.Millisecond)
	if sends == base {
		t.Fatal("transmissions did not resume after backup recruitment")
	}
}

func TestStateTransferSeedsBackup(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 12, link: netsim.LinkParams{Delay: ms(2)}})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))
	c.registerOK(t, spec("y", ms(40), ms(50), ms(200)))
	c.primary.SetBackupAlive(false)
	c.primary.ClientWrite("x", []byte("vx"), nil)
	c.primary.ClientWrite("y", []byte("vy"), nil)
	c.clk.RunFor(ms(100))
	if _, _, ok := c.backup.Value("x"); ok {
		t.Fatal("backup received value while primary considered it dead")
	}
	c.primary.SetBackupAlive(true)
	c.clk.RunFor(ms(100))
	for _, name := range []string{"x", "y"} {
		if _, _, ok := c.backup.Value(name); !ok {
			t.Fatalf("backup missing %q after state transfer", name)
		}
	}
	if xfer := c.primary.PeerStates()[0].Transfer; xfer.Completions != 1 || xfer.EntriesSent != 2 {
		t.Fatalf("state transfer: %d completions streaming %d entries, want 1 and 2", xfer.Completions, xfer.EntriesSent)
	}
}

func TestBackupStateSnapshotForPromotion(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 13, link: netsim.LinkParams{Delay: ms(2)}})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))
	c.primary.ClientWrite("x", []byte("last"), nil)
	c.clk.RunFor(500 * time.Millisecond)
	var held []string
	for _, id := range c.backup.adm.orderedIDs() {
		if o := c.backup.adm.objects[id]; o.hasData {
			held = append(held, string(o.value))
		}
	}
	if len(held) != 1 || held[0] != "last" {
		t.Fatalf("backup holds %q, want [last]", held)
	}
}

func TestPingAckExchange(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 14, link: netsim.LinkParams{Delay: ms(2)}})
	var acks []uint64
	c.primary.OnPingAck = func(seq uint64) { acks = append(acks, seq) }
	seq := c.primary.SendPing()
	c.clk.RunFor(ms(20))
	if len(acks) != 1 || acks[0] != seq {
		t.Fatalf("acks = %v, want [%d]", acks, seq)
	}
	// And the reverse direction.
	var backAcks []uint64
	c.backup.OnPingAck = func(seq uint64) { backAcks = append(backAcks, seq) }
	bseq := c.backup.SendPing()
	c.clk.RunFor(ms(20))
	if len(backAcks) != 1 || backAcks[0] != bseq {
		t.Fatalf("backup acks = %v, want [%d]", backAcks, bseq)
	}
}

func TestStoppedPrimaryRejectsOperations(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 15, link: netsim.LinkParams{Delay: ms(2)}})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))
	c.primary.Stop()
	if d := c.primary.Register(spec("y", ms(40), ms(50), ms(200))); d.Accepted {
		t.Fatal("stopped primary accepted registration")
	}
	failed := false
	c.primary.ClientWrite("x", []byte("v"), func(_ time.Duration, err error) {
		failed = err != nil
	})
	c.clk.RunFor(ms(10))
	if !failed {
		t.Fatal("stopped primary accepted client write")
	}
	c.primary.Stop() // idempotent
}

func TestManyObjectsReplicateIndependently(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 16, link: netsim.LinkParams{Delay: ms(2), Jitter: ms(1)}})
	const n = 8
	for i := 0; i < n; i++ {
		c.registerOK(t, spec(fmt.Sprintf("obj%d", i), ms(40), ms(50), ms(250)))
	}
	var stops []interface{ Stop() }
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("obj%d", i)
		tag := byte(i)
		stops = append(stops, c.writeEvery(name, ms(40), func(k int) []byte {
			return []byte{tag, byte(k)}
		}))
	}
	c.clk.RunFor(2 * time.Second)
	for _, s := range stops {
		s.Stop()
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("obj%d", i)
		got, _, ok := c.backup.Value(name)
		if !ok {
			t.Fatalf("backup missing %q", name)
		}
		if got[0] != byte(i) {
			t.Fatalf("object %q holds payload of object %d", name, got[0])
		}
	}
}

func TestInterObjectConsistencyEndToEnd(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 17, link: netsim.LinkParams{Delay: ms(2)}})
	c.registerOK(t, spec("accel", ms(20), ms(40), ms(400)))
	c.registerOK(t, spec("lift", ms(20), ms(40), ms(400)))
	d, err := c.primary.RegisterInterObject(temporal.InterObjectConstraint{
		I: "accel", J: "lift", Delta: ms(60),
	})
	if err != nil || !d.Accepted {
		t.Fatalf("inter-object registration failed: %v %s", err, d.Reason)
	}

	mon := temporal.NewMonitor()
	cst := temporal.InterObjectConstraint{I: "accel", J: "lift", Delta: ms(60)}
	mon.TrackInterObject("backup", cst)
	c.backup.OnApply = func(_ uint32, name string, _ uint32, _ uint64, version, at time.Time) {
		mon.RecordUpdate("backup", name, version, at)
	}

	s1 := c.writeEvery("accel", ms(20), func(i int) []byte { return []byte{1, byte(i)} })
	s2 := c.writeEvery("lift", ms(20), func(i int) []byte { return []byte{2, byte(i)} })
	c.clk.RunFor(3 * time.Second)
	s1.Stop()
	s2.Stop()
	mon.FinishAt(c.clk.Now())

	r, ok := mon.InterObjectReport("backup", "accel", "lift")
	if !ok || r.Checks < 10 {
		t.Fatalf("inter-object report missing or thin: %+v ok=%v", r, ok)
	}
	if !r.Consistent() {
		t.Fatalf("inter-object consistency violated at backup: %+v", r)
	}
}
