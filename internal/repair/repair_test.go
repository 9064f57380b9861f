package repair

import (
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/topo"
	"rtpb/internal/xkernel"
)

// fixture is a simulated fabric with one primary host and a set of
// replica hosts, each with its own protocol stack.
type fixture struct {
	clk     *clock.SimClock
	net     *netsim.Network
	ns      *failover.NameService
	primary *core.Replica
	hosts   map[string]*topo.Host
}

func addrOf(host string) xkernel.Addr {
	return xkernel.Addr(host + ":7000")
}

func newFixture(t *testing.T, hosts ...string) *fixture {
	t.Helper()
	fab, hs, err := topo.Build(7, netsim.LinkParams{}, append([]string{"primary"}, hosts...)...)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{clk: fab.Clock, net: fab.Net, ns: failover.NewNameService(), hosts: make(map[string]*topo.Host)}
	for _, h := range hs {
		f.hosts[h.Name] = h
	}
	p, err := core.NewPrimary(core.Config{
		Clock: f.clk,
		Port:  f.hosts["primary"].Port,
		Ell:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.primary = p
	if err := f.ns.Set("svc", addrOf("primary"), 1); err != nil {
		t.Fatal(err)
	}
	return f
}

// startBackup runs a backup replica on the named host, pointed
// at the primary.
func (f *fixture) startBackup(t *testing.T, host string) *core.Replica {
	t.Helper()
	b, err := core.NewBackup(core.Config{
		Clock: f.clk,
		Port:  f.hosts[host].Port,
		Peer:  addrOf("primary"),
		Ell:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (f *fixture) register(t *testing.T, name string, period time.Duration) {
	t.Helper()
	d := f.primary.Register(core.ObjectSpec{
		Name:         name,
		Size:         64,
		UpdatePeriod: period,
		Constraint: temporal.ExternalConstraint{
			DeltaP: period,
			DeltaB: 4 * period,
		},
	})
	if !d.Accepted {
		t.Fatalf("register %q: %s", name, d.Reason)
	}
}

func TestRejoinerWaitsForSuccessorThenJoins(t *testing.T) {
	f := newFixture(t, "cand1")
	f.register(t, "alpha", 20*time.Millisecond)
	f.primary.ClientWrite("alpha", []byte("seed"), nil)

	// The directory initially still names the rejoiner itself — the
	// fenced-old-primary case: it must wait for a successor.
	ns := failover.NewNameService()
	if err := ns.Set("svc", addrOf("cand1"), 1); err != nil {
		t.Fatal(err)
	}

	started := 0
	rj, err := NewRejoiner(RejoinerConfig{
		Clock:     f.clk,
		Service:   "svc",
		Directory: ns,
		Self:      addrOf("cand1"),
		Start: func(primary xkernel.Addr, epoch uint32) (*core.Replica, error) {
			started++
			if primary != addrOf("primary") {
				t.Fatalf("start hook got primary %v", primary)
			}
			if epoch != 2 {
				t.Fatalf("start hook got epoch %d, want 2", epoch)
			}
			return f.startBackup(t, "cand1"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rj.Start()
	defer rj.Stop()

	f.clk.RunFor(time.Second)
	if started != 0 {
		t.Fatal("rejoiner started a backup while the directory still named itself")
	}
	if rj.Status().Lookups == 0 {
		t.Fatal("rejoiner never polled the directory")
	}

	// A successor claims the service; the rejoiner must demote and join.
	if err := ns.Set("svc", addrOf("primary"), 2); err != nil {
		t.Fatal(err)
	}
	f.clk.RunFor(3 * time.Second)

	if started != 1 {
		t.Fatalf("start hook ran %d times, want 1", started)
	}
	st := rj.Status()
	if !st.Joined || st.Primary != addrOf("primary") {
		t.Fatalf("status = %+v, want joined to primary", st)
	}
	if b := rj.b; b == nil || !b.Joined() {
		t.Fatal("backup never completed its join exchange")
	}
	if _, _, ok := rj.b.Value("alpha"); !ok {
		t.Fatal("rejoined backup missing alpha's state")
	}
	if got := f.primary.SyncedPeers(); got != 1 {
		t.Fatalf("primary synced peers = %d, want 1", got)
	}
}

func TestRejoinerJoinSurvivesLossyLink(t *testing.T) {
	f := newFixture(t, "cand1")
	if err := f.net.SetDefaultLink(netsim.LinkParams{
		Delay:    500 * time.Microsecond,
		Jitter:   200 * time.Microsecond,
		LossProb: 0.25,
	}); err != nil {
		t.Fatal(err)
	}
	f.register(t, "alpha", 20*time.Millisecond)
	f.register(t, "beta", 20*time.Millisecond)
	f.primary.ClientWrite("alpha", []byte("a"), nil)
	f.primary.ClientWrite("beta", []byte("b"), nil)
	f.clk.RunFor(10 * time.Millisecond)

	rj, err := NewRejoiner(RejoinerConfig{
		Clock:     f.clk,
		Service:   "svc",
		Directory: f.ns,
		Self:      addrOf("cand1"),
		Start: func(primary xkernel.Addr, epoch uint32) (*core.Replica, error) {
			return f.startBackup(t, "cand1"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rj.Start()
	defer rj.Stop()

	f.clk.RunFor(20 * time.Second)
	if !rj.Status().Joined {
		t.Fatalf("rejoin never completed over a 25%%-loss link; status %+v", rj.Status())
	}
	if _, _, ok := rj.b.Value("beta"); !ok {
		t.Fatal("rejoined backup missing beta's state")
	}
}

// TestRejoinerDemotesFencedPrimaryInPlace covers the repaired-machine
// path where the old primary's process survived its partition: instead of
// rebuilding a backup from nothing, the rejoiner demotes the running
// replica in place. The object table carries over, so the anti-entropy
// digest transfers only what the replica missed, and the role flip is
// observable through Role and Transitions.
func TestRejoinerDemotesFencedPrimaryInPlace(t *testing.T) {
	f := newFixture(t, "succ")
	f.register(t, "alpha", 20*time.Millisecond)
	if err := f.primary.SetPeer(addrOf("succ")); err != nil {
		t.Fatal(err)
	}
	b := f.startBackup(t, "succ")
	f.primary.ClientWrite("alpha", []byte("old"), nil)
	f.clk.RunFor(500 * time.Millisecond)
	if _, _, ok := b.Value("alpha"); !ok {
		t.Fatal("backup never replicated alpha before the partition")
	}

	// The old primary's machine drops off the fabric; the backup promotes
	// in place and serves a newer value under the bumped epoch.
	f.hosts["primary"].EP.SetDown(true)
	succ, err := failover.Promote(b, failover.PromoteOptions{
		Service: "svc", SelfAddr: addrOf("succ"), Names: f.ns,
	})
	if err != nil {
		t.Fatalf("promotion: %v", err)
	}
	succ.ClientWrite("alpha", []byte("new"), nil)
	f.clk.RunFor(100 * time.Millisecond)

	// The link heals. The fenced old primary is still running; the
	// rejoiner demotes it in place and drives the join exchange.
	f.hosts["primary"].EP.SetDown(false)
	demoted := 0
	rj, err := NewRejoiner(RejoinerConfig{
		Clock:     f.clk,
		Service:   "svc",
		Directory: f.ns,
		Self:      addrOf("primary"),
		Replica:   f.primary,
		OnDemoted: func(b *core.Replica) {
			demoted++
			if b != f.primary {
				t.Fatal("demotion handed back a different replica")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rj.Start()
	defer rj.Stop()
	f.clk.RunFor(3 * time.Second)

	if demoted != 1 {
		t.Fatalf("OnDemoted fired %d times, want 1", demoted)
	}
	if f.primary.Role() != core.RoleBackup || f.primary.Transitions() != 1 {
		t.Fatalf("role=%v transitions=%d, want backup/1",
			f.primary.Role(), f.primary.Transitions())
	}
	st := rj.Status()
	if !st.Joined || st.Primary != addrOf("succ") {
		t.Fatalf("status = %+v, want joined to succ", st)
	}
	if f.primary.Epoch() < 2 {
		t.Fatalf("demoted replica still at epoch %d, want the successor's", f.primary.Epoch())
	}
	if v, _, ok := f.primary.Value("alpha"); !ok || string(v) != "new" {
		t.Fatalf("demoted replica holds alpha=%q ok=%v, want the successor's value", v, ok)
	}
	// Live replication resumed: a fresh write reaches the demoted replica.
	succ.ClientWrite("alpha", []byte("newer"), nil)
	f.clk.RunFor(200 * time.Millisecond)
	if v, _, _ := f.primary.Value("alpha"); string(v) != "newer" {
		t.Fatalf("demoted replica not tracking live writes: %q", v)
	}
	if got := succ.SyncedPeers(); got != 1 {
		t.Fatalf("successor synced peers = %d, want the demoted replica attached", got)
	}
}

// TestRejoinerConfigRequiresExactlyOneStartPath pins the Start/Replica
// exclusivity rule.
func TestRejoinerConfigRequiresExactlyOneStartPath(t *testing.T) {
	clk := clock.NewSim()
	ns := failover.NewNameService()
	base := RejoinerConfig{Clock: clk, Service: "svc", Directory: ns, Self: addrOf("x")}
	if _, err := NewRejoiner(base); err == nil {
		t.Fatal("rejoiner accepted a config with neither Start nor Replica")
	}
	both := base
	both.Start = func(xkernel.Addr, uint32) (*core.Replica, error) { return nil, nil }
	both.Replica = &core.Replica{}
	if _, err := NewRejoiner(both); err == nil {
		t.Fatal("rejoiner accepted a config with both Start and Replica")
	}
}
