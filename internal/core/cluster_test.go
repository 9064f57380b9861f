package core

import (
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
	"rtpb/internal/topo"
)

// testCluster is a two-replica RTPB deployment on a simulated network,
// the standard fixture for end-to-end protocol tests.
type testCluster struct {
	clk     *clock.SimClock
	net     *netsim.Network
	primary *Replica
	backup  *Replica
	pEP     *netsim.Endpoint
	bEP     *netsim.Endpoint
}

type clusterOpts struct {
	seed    int64
	link    netsim.LinkParams
	ell     time.Duration
	mutateP func(*Config)
	mutateB func(*Config)
}

// fabric builds a simulated fabric with one host per name.
func fabric(t *testing.T, seed int64, link netsim.LinkParams, names ...string) (*topo.Fabric, []*topo.Host) {
	t.Helper()
	f, hs, err := topo.Build(seed, link, names...)
	if err != nil {
		t.Fatal(err)
	}
	return f, hs
}

func newTestCluster(t *testing.T, opts clusterOpts) *testCluster {
	t.Helper()
	f, hs := fabric(t, opts.seed, opts.link, "primary", "backup")
	clk, p, b := f.Clock, hs[0], hs[1]

	ell := opts.ell
	if ell == 0 {
		ell = opts.link.Bound()
		if ell == 0 {
			ell = time.Millisecond
		}
	}
	pCfg := Config{Clock: clk, Port: p.Port, Peer: b.Addr, Ell: ell}
	bCfg := Config{Clock: clk, Port: b.Port, Peer: p.Addr, Ell: ell}
	if opts.mutateP != nil {
		opts.mutateP(&pCfg)
	}
	if opts.mutateB != nil {
		opts.mutateB(&bCfg)
	}
	primary, err := NewPrimary(pCfg)
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(bCfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{clk: clk, net: f.Net, primary: primary, backup: backup, pEP: p.EP, bEP: b.EP}
}

// registerOK registers a spec on the primary and fails the test on
// rejection, then runs the clock briefly so the backup learns about it.
func (c *testCluster) registerOK(t *testing.T, s ObjectSpec) Decision {
	t.Helper()
	d := c.primary.Register(s)
	if !d.Accepted {
		t.Fatalf("registration of %q rejected: %s", s.Name, d.Reason)
	}
	c.clk.RunFor(5 * time.Millisecond)
	return d
}

// writeEvery drives periodic client writes for an object until the
// returned stop function is called.
func (c *testCluster) writeEvery(name string, period time.Duration, payload func(i int) []byte) *clock.Periodic {
	i := 0
	return clock.NewPeriodic(c.clk, 0, period, func() {
		i++
		c.primary.ClientWrite(name, payload(i), nil)
	})
}
