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

// TestRejoinerConfigRequiresStart pins that a rejoiner without a start
// hook, a clock or a directory is refused.
func TestRejoinerConfigRequiresStart(t *testing.T) {
	clk := clock.NewSim()
	ns := failover.NewNameService()
	start := func(xkernel.Addr, uint32) (*core.Replica, error) { return nil, nil }
	base := RejoinerConfig{Clock: clk, Service: "svc", Directory: ns, Self: addrOf("x"), Start: start}
	if _, err := NewRejoiner(base); err != nil {
		t.Fatalf("rejoiner refused a complete config: %v", err)
	}
	for name, mutate := range map[string]func(*RejoinerConfig){
		"no start":     func(c *RejoinerConfig) { c.Start = nil },
		"no clock":     func(c *RejoinerConfig) { c.Clock = nil },
		"no directory": func(c *RejoinerConfig) { c.Directory = nil },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := NewRejoiner(cfg); err == nil {
			t.Errorf("rejoiner accepted a config with %s", name)
		}
	}
}
