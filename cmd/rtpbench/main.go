// Command rtpbench regenerates the paper's evaluation figures (Section 5)
// on the simulated RTPB deployment and prints each as a data table or CSV,
// and runs the deterministic fault-injection scenarios of internal/chaos.
//
// Usage:
//
//	rtpbench                    # all figures, table output
//	rtpbench -figure 8          # one figure
//	rtpbench -csv               # CSV output
//	rtpbench -duration 30s      # longer measurement interval per point
//	rtpbench -seed 7            # different random seed
//	rtpbench -json              # every sweep -> BENCH_rtpb.json
//
//	rtpbench chaos -list        # list the scenario catalogue
//	rtpbench chaos              # run every quick scenario
//	rtpbench chaos -full        # include the long soak scenarios
//	rtpbench chaos -scenario split-brain-fencing -seed 3 -v
//
//	rtpbench shard              # one sweep of the model report, table output
//	rtpbench shard -csv         # CSV output
//	rtpbench shard -json        # replace the sweep's block in BENCH_rtpb.json
//
// The sweeps are points (the resilience matrix), rejoin (repair cycle and
// disk-vs-network transfer), shard (capacity vs shard count), clocksync
// (skew tolerance), gateway (front-tier fan-out) and observers (observer
// read offload); "rtpbench -json" runs them all and writes every block.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"time"

	"rtpb/internal/chaos"
	"rtpb/internal/experiments"
	"rtpb/internal/trace"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "chaos":
		err = runChaos(args[1:])
	case len(args) > 0 && findSweep(args[0]) != nil:
		err = runSweep(findSweep(args[0]), args[1:])
	default:
		err = run(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtpbench:", err)
		os.Exit(1)
	}
}

// scenario is one entry of the three chaos catalogues behind one run func.
type scenario struct {
	name, tag, description string
	seed                   int64 // committed seed (0 runs as 1)
	full                   bool  // long soak: catalogue runs skip it without -full
	run                    func() (*chaos.Result, error)
}

// scenarios lists the plain, shard and gateway catalogues in that order;
// a nonzero seed overrides each committed one when it runs.
func scenarios(seed int64) []scenario {
	var all []scenario
	for _, sc := range chaos.Catalogue() {
		tag := "quick"
		if sc.Full {
			tag = "full "
		}
		all = append(all, scenario{sc.Name, tag, sc.Description, sc.Seed, sc.Full, func() (*chaos.Result, error) {
			sc.Seed = cmp.Or(seed, sc.Seed)
			return chaos.Run(sc)
		}})
	}
	for _, sc := range chaos.ShardCatalogue() {
		all = append(all, scenario{sc.Name, "shard", sc.Description, sc.Seed, false, func() (*chaos.Result, error) {
			sc.Seed = cmp.Or(seed, sc.Seed)
			return chaos.RunShard(sc)
		}})
	}
	for _, sc := range chaos.GatewayCatalogue() {
		all = append(all, scenario{sc.Name, "gway ", sc.Description, sc.Seed, false, func() (*chaos.Result, error) {
			sc.Seed = cmp.Or(seed, sc.Seed)
			return chaos.RunGateway(sc)
		}})
	}
	return all
}

// runChaos implements the "chaos" subcommand: list or execute the
// fault-injection catalogue and exit non-zero on any invariant violation.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("rtpbench chaos", flag.ContinueOnError)
	name := fs.String("scenario", "", "run a single scenario by name (default: the whole catalogue)")
	seed := fs.Int64("seed", 0, "override the scenario's committed seed (0 keeps it)")
	list := fs.Bool("list", false, "list the catalogue and exit")
	verbose := fs.Bool("v", false, "print each scenario's virtual-timestamped event log")
	full := fs.Bool("full", false, "include long soak scenarios in catalogue runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	all := scenarios(*seed)
	if *list {
		for _, sc := range all {
			fmt.Printf("%-26s %s seed=%-3d %s\n", sc.name, sc.tag, cmp.Or(sc.seed, 1), sc.description)
		}
		return nil
	}

	var picked []scenario
	for _, sc := range all {
		if *name == "" && (!sc.full || *full) || sc.name == *name {
			picked = append(picked, sc)
		}
	}
	if *name != "" && len(picked) == 0 {
		return fmt.Errorf("no such scenario %q (rtpbench chaos -list)", *name)
	}
	failed := 0
	for _, sc := range picked {
		res, err := sc.run()
		if err != nil {
			return fmt.Errorf("scenario %q: %w", sc.name, err)
		}
		status := "PASS"
		if res.Failed() {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-26s seed=%-3d %6v virtual, %d promotions, epoch %d\n",
			status, res.Scenario, res.Seed, res.Elapsed, res.Promotions, res.FinalEpoch)
		for _, v := range res.Violations {
			fmt.Printf("     violation: %s\n", v)
		}
		if *verbose {
			for _, line := range res.Log {
				fmt.Printf("     %s\n", line)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(picked))
	}
	return nil
}

// run implements the bare command: print the figures, or with -json run
// every sweep and write the whole model report.
func run(args []string) error {
	fs, o := newFlags("rtpbench", 0, "virtual measurement interval per data point (0: 10s per figure point, or with -json each sweep's own default)")
	figure := fs.Int("figure", 0, "figure number to regenerate (6-12, 13 = live phase variance, 14 = active-vs-passive comparison); 0 means all")
	plot := fs.Bool("plot", false, "render an ASCII chart under each table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *o.json {
		return runReport(*o.jsonPath, *o.seed, *o.duration)
	}
	duration := cmp.Or(*o.duration, 10*time.Second)

	type gen func(int64, time.Duration) (*trace.Figure, error)
	gens := map[int]gen{
		6:  experiments.Figure6,
		7:  experiments.Figure7,
		8:  experiments.Figure8,
		9:  experiments.Figure9,
		10: experiments.Figure10,
		11: experiments.Figure11,
		12: experiments.Figure12,
		// 13 and 14 are not paper figures: 13 is this reproduction's
		// live phase-variance measurement (Definition 1 observed on the
		// running protocol, against the Inequality 2.1 bound); 14 is the
		// passive-vs-active response-time comparison that quantifies the
		// related-work argument of Section 6.1.
		13: experiments.PhaseVarianceFigure,
		14: experiments.CompareFigure,
	}

	var figures []*trace.Figure
	if *figure == 0 {
		all, err := experiments.Figures(*o.seed, duration)
		if err != nil {
			return err
		}
		figures = all
	} else {
		g, ok := gens[*figure]
		if !ok {
			return fmt.Errorf("no such figure %d (want 6-14)", *figure)
		}
		f, err := g(*o.seed, duration)
		if err != nil {
			return err
		}
		figures = []*trace.Figure{f}
	}

	for i, f := range figures {
		if i > 0 {
			fmt.Println()
		}
		if *o.csv {
			fmt.Printf("# %s: %s\n%s", f.Name, f.Title, f.CSV())
		} else {
			fmt.Print(f.Render())
		}
		if *plot {
			fmt.Println()
			fmt.Print(f.Plot(64, 16))
		}
	}
	return nil
}
