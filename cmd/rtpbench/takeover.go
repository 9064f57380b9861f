package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/topo"
)

// takeoverPoint is one object count in the takeover-latency sweep. Unlike
// every other section of the report it records wall-clock time — the cost
// of the Promote call itself, which runs no virtual time — so its numbers
// vary between hosts and runs. The shape is what matters: the in-place
// promotion does no per-object admission test and no state copy, so the
// latency stays flat as the object count grows.
type takeoverPoint struct {
	// Objects is the size of the replicated object table at takeover.
	Objects int `json:"objects"`
	// PromoteMicros is the best-of-reps wall-clock cost of the Promote
	// call: epoch bump, role flip, timer activation, directory claim.
	PromoteMicros float64 `json:"promote_us"`
	// Epoch is the epoch the successor serves under (2: first takeover).
	Epoch uint32 `json:"epoch"`
}

// takeoverOnce replicates n objects to a backup, crashes the primary, and
// times the in-place promotion.
func takeoverOnce(seed int64, n int) (time.Duration, uint32, error) {
	f, hs, err := topo.Build(seed, netsim.LinkParams{Delay: time.Millisecond}, "p", "b")
	if err != nil {
		return 0, 0, err
	}
	clk := f.Clock
	// Admission control off: the sweep measures takeover against table
	// size, not how many objects one CPU budget schedules.
	p, err := core.NewPrimary(core.Config{
		Clock: clk, Port: hs[0].Port, Peer: hs[1].Addr,
		Ell: 2 * time.Millisecond, DisableAdmissionControl: true,
	})
	if err != nil {
		return 0, 0, err
	}
	b, err := core.NewBackup(core.Config{
		Clock: clk, Port: hs[1].Port, Peer: hs[0].Addr,
		Ell: 2 * time.Millisecond, DisableAdmissionControl: true,
	})
	if err != nil {
		return 0, 0, err
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
			return 0, 0, fmt.Errorf("register %q: %s", spec.Name, d.Reason)
		}
		p.ClientWrite(spec.Name, []byte(fmt.Sprintf("v%d", i)), nil)
	}
	clk.RunFor(500 * time.Millisecond)

	hs[0].EP.SetDown(true)
	p.Stop()
	ns := failover.NewNameService()
	if err := ns.Set("bench", hs[0].Addr, 1); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	np, err := failover.Promote(b, failover.PromoteOptions{
		Service: "bench", SelfAddr: hs[1].Addr, Names: ns,
	})
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	epoch := np.Epoch()
	np.Stop()
	return elapsed, epoch, nil
}

// takeoverSweep times the in-place promotion at each object count, keeping
// the best of reps runs (the minimum is the least-noise estimate of the
// code path's cost).
func takeoverSweep(seed int64, reps int, counts []int) ([]takeoverPoint, error) {
	var points []takeoverPoint
	for _, n := range counts {
		var best time.Duration
		var epoch uint32
		for rep := 0; rep < reps; rep++ {
			d, e, err := takeoverOnce(seed+int64(rep), n)
			if err != nil {
				return nil, fmt.Errorf("takeover n=%d rep=%d: %w", n, rep, err)
			}
			if rep == 0 || d < best {
				best, epoch = d, e
			}
		}
		points = append(points, takeoverPoint{
			Objects:       n,
			PromoteMicros: float64(best) / float64(time.Microsecond),
			Epoch:         epoch,
		})
	}
	return points, nil
}

// runTakeoverCmd implements the "takeover" subcommand: print the
// takeover-latency-vs-object-count sweep, and with -json merge it into
// the benchmark report file.
func runTakeoverCmd(args []string) error {
	fs := flag.NewFlagSet("rtpbench takeover", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "random seed for the replication phase")
	reps := fs.Int("reps", 5, "runs per object count (best is kept)")
	csv := fs.Bool("csv", false, "emit CSV instead of an aligned table")
	jsonOut := fs.Bool("json", false, "merge the sweep into the JSON benchmark report")
	jsonPath := fs.String("json.out", "BENCH_rtpb.json", "path of the -json report")
	if err := fs.Parse(args); err != nil {
		return err
	}
	points, err := takeoverSweep(*seed, *reps, []int{1, 16, 64, 256})
	if err != nil {
		return err
	}
	if *csv {
		fmt.Println("objects,promote_us,epoch")
		for _, p := range points {
			fmt.Printf("%d,%.1f,%d\n", p.Objects, p.PromoteMicros, p.Epoch)
		}
	} else {
		fmt.Println("takeover latency vs object count (in-place promotion, best of reps)")
		fmt.Printf("%-8s %-11s %s\n", "objects", "promote_us", "epoch")
		for _, p := range points {
			fmt.Printf("%-8d %-11.1f %d\n", p.Objects, p.PromoteMicros, p.Epoch)
		}
	}
	if !*jsonOut {
		return nil
	}
	// Merge into the existing report rather than clobbering the other
	// sweeps; a missing file starts a fresh report.
	var report benchReport
	if data, err := os.ReadFile(*jsonPath); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parse %s: %w", *jsonPath, err)
		}
	}
	if report.Seed == 0 {
		report.Seed = *seed
	}
	report.Takeover = points
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d object counts, best of %d)\n", *jsonPath, len(points), *reps)
	return nil
}
