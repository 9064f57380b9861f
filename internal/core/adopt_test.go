package core

import (
	"reflect"
	"testing"
	"time"

	"rtpb/internal/durable"
	"rtpb/internal/netsim"
	"rtpb/internal/wire"
)

// requireLedger fails unless r holds exactly the primary's specs, each
// with the update period the primary admitted it with.
func requireLedger(t *testing.T, path string, primary, r *Replica) {
	t.Helper()
	want := primary.Specs()
	if got := r.Specs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %s: specs %+v, want the primary's %+v", path, got, want)
	}
	for _, s := range want {
		wp, _ := primary.UpdatePeriod(s.Name)
		if gp, ok := r.UpdatePeriod(s.Name); !ok || gp != wp {
			t.Errorf("after %s: %q update period %v (ok=%v), want the primary's %v", path, s.Name, gp, ok, wp)
		}
	}
}

// Every path by which a replicated spec reaches a backup's table — a
// Register, a late JoinAccept, a StateChunk entry for an id it never
// saw, and a restart from its durable log — leaves the backup with the
// primary's spec, Critical included, and the primary's update period,
// under a nonzero SkewMargin.
func TestEveryAdoptPathYieldsThePrimaryLedger(t *testing.T) {
	specs := []ObjectSpec{
		spec("plain", ms(40), ms(50), ms(250)),
		criticalSpec("critical"),
		spec("wide", ms(20), ms(30), ms(400)),
	}
	const margin = 3 * time.Millisecond
	skew := func(cfg *Config) { cfg.SkewMargin = margin }

	dir := t.TempDir()
	dlog, err := durable.Open(durable.Config{Dir: dir, Sync: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, clusterOpts{seed: 71, link: netsim.LinkParams{Delay: ms(2)}, mutateP: skew,
		mutateB: func(cfg *Config) { skew(cfg); cfg.Durable = dlog }})
	for _, s := range specs {
		c.registerOK(t, s)
	}
	c.clk.RunFor(ms(100))
	requireLedger(t, "Register", c.primary, c.backup)

	late := newTestCluster(t, clusterOpts{seed: 72, link: netsim.LinkParams{Delay: ms(2)},
		mutateP: func(cfg *Config) { skew(cfg); cfg.Peer = "" }, mutateB: skew})
	for _, s := range specs {
		late.registerOK(t, s)
	}
	if err := late.primary.AddPeer("backup:7000"); err != nil {
		t.Fatal(err)
	}
	late.clk.RunFor(ms(500))
	if !late.backup.Joined() {
		t.Fatal("the late join never completed")
	}
	requireLedger(t, "a late JoinAccept", late.primary, late.backup)

	f, hs := fabric(t, 73, netsim.LinkParams{}, "fresh")
	fresh, err := NewBackup(Config{Clock: f.Clock, Port: hs[0].Port, Ell: c.primary.cfg.Ell, SkewMargin: margin})
	if err != nil {
		t.Fatal(err)
	}
	chunk := &wire.StateChunk{Epoch: c.primary.Epoch(), Final: true}
	for _, o := range c.primary.adm.ordered() {
		chunk.Entries = append(chunk.Entries, c.primary.stateEntryFor(o))
	}
	m, err := wire.Decode(wire.Encode(chunk))
	if err != nil {
		t.Fatal(err)
	}
	fresh.demuxBackup(m)
	requireLedger(t, "a StateChunk for unregistered ids", c.primary, fresh)

	c.backup.Stop()
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	st, _, err := durable.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, gh := fabric(t, 74, netsim.LinkParams{}, "restarted")
	restarted, err := NewBackup(Config{Clock: g.Clock, Port: gh[0].Port, Ell: c.primary.cfg.Ell, SkewMargin: margin})
	if err != nil {
		t.Fatal(err)
	}
	restarted.RestoreDurable(st)
	requireLedger(t, "RestoreDurable", c.primary, restarted)
}

// A backup promoted over a critical object keeps serving it on the
// hybrid path: once a fresh backup is recruited, a write on the promoted
// primary completes only after that backup's ack, a full round trip.
func TestPromotedCriticalObjectWaitsForRecruitedBackup(t *testing.T) {
	f, hs := fabric(t, 75, netsim.LinkParams{Delay: ms(3)}, "primary", "backup", "recruit")
	ell := ms(3)
	primary, err := NewPrimary(Config{Clock: f.Clock, Port: hs[0].Port, Peer: hs[1].Addr, Ell: ell})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(Config{Clock: f.Clock, Port: hs[1].Port, Peer: hs[0].Addr, Ell: ell})
	if err != nil {
		t.Fatal(err)
	}
	if d := primary.Register(criticalSpec("x")); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	f.Clock.RunFor(ms(50))
	primary.Stop()

	if err := backup.Promote(2); err != nil {
		t.Fatal(err)
	}
	recruit, err := NewBackup(Config{Clock: f.Clock, Port: hs[2].Port, Peer: hs[1].Addr, Ell: ell})
	if err != nil {
		t.Fatal(err)
	}
	if err := backup.AddPeer(hs[2].Addr); err != nil {
		t.Fatal(err)
	}
	f.Clock.RunFor(ms(500))
	if !recruit.Joined() {
		t.Fatal("the recruited backup never joined")
	}

	var lat time.Duration
	done := false
	backup.ClientWrite("x", []byte("v"), func(l time.Duration, err error) {
		if err != nil {
			t.Fatalf("critical write failed: %v", err)
		}
		lat, done = l, true
	})
	f.Clock.RunFor(ms(50))
	if !done {
		t.Fatal("the write never completed")
	}
	if lat < 6*time.Millisecond {
		t.Fatalf("write latency %v is below one round trip: it did not wait for the recruit's ack", lat)
	}
	if v, _, ok := recruit.Value("x"); !ok || string(v) != "v" {
		t.Fatalf("recruit value = %q (ok=%v), want %q", v, ok, "v")
	}
}
