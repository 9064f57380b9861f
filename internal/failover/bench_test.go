package failover

import (
	"fmt"
	"testing"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/topo"
)

// BenchmarkPromote times the in-place takeover against the size of the
// replicated object table: n objects replicate to a backup, the primary
// crashes, and only the Promote call (epoch bump, role flip, timer
// activation, directory claim) is timed. No state is copied and nothing is
// re-admitted, so ns/op should grow only with the per-object timers.
// ns/op is the Promote call alone; the iteration count is paced by the
// whole iteration, replication included, so a run stays short.
func BenchmarkPromote(b *testing.B) {
	for _, n := range []int{1, 16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var promote time.Duration
			for i := 0; i < b.N; i++ {
				promote += promoteOnce(b, int64(i), n)
			}
			b.ReportMetric(float64(promote.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}

// promoteOnce replicates n objects to a backup, crashes the primary, and
// returns how long the backup's promotion took.
func promoteOnce(b *testing.B, seed int64, n int) time.Duration {
	f, hs, err := topo.Build(seed, netsim.LinkParams{Delay: time.Millisecond}, "p", "b")
	if err != nil {
		b.Fatal(err)
	}
	// Admission control off: the benchmark measures takeover against
	// table size, not how many objects one CPU budget schedules.
	cfg := func(i, peer int) core.Config {
		return core.Config{Clock: f.Clock, Port: hs[i].Port, Peer: hs[peer].Addr,
			Ell: 2 * time.Millisecond, DisableAdmissionControl: true}
	}
	p, err := core.NewReplica(cfg(0, 1), core.RolePrimary)
	if err != nil {
		b.Fatal(err)
	}
	bk, err := core.NewReplica(cfg(1, 0), core.RoleBackup)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		spec := core.ObjectSpec{
			Name:         fmt.Sprintf("obj%d", i),
			Size:         32,
			UpdatePeriod: 20 * time.Millisecond,
			Constraint: temporal.ExternalConstraint{
				DeltaP: 20 * time.Millisecond,
				DeltaB: 200 * time.Millisecond,
			},
		}
		if d := p.Register(spec); !d.Accepted {
			b.Fatalf("register %q: %s", spec.Name, d.Reason)
		}
		p.ClientWrite(spec.Name, []byte(fmt.Sprintf("v%d", i)), nil)
	}
	f.Clock.RunFor(500 * time.Millisecond)

	hs[0].EP.SetDown(true)
	p.Stop()
	ns := NewNameService()
	if err := ns.Set("bench", hs[0].Addr, 1); err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	np, err := Promote(bk, PromoteOptions{Service: "bench", SelfAddr: hs[1].Addr, Names: ns})
	elapsed := time.Since(start)
	if err != nil {
		b.Fatal(err)
	}
	if np.Epoch() != 2 || np.Objects() != n {
		b.Fatalf("promoted to epoch %d serving %d objects, want epoch 2 serving %d", np.Epoch(), np.Objects(), n)
	}
	np.Stop()
	return elapsed
}
