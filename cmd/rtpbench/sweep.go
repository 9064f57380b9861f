package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// point is one measured cell of a sweep. It marshals into the report as
// itself and formats itself as the cells of an aligned-table or CSV line;
// nil cells keep it out of the printed table.
type point interface {
	cells(csv bool) []string
}

// column is one aligned-table column: its header and the width every
// cell but the last is padded to.
type column struct {
	head  string
	width int
}

// sweep is one row of the sweep table: a block of BENCH_rtpb.json, the
// subcommand that prints it, and the virtual-clock measurement behind
// both. run enforces the sweep's own gates and fails when one is missed.
type sweep struct {
	name     string        // subcommand and report block
	duration time.Duration // default -duration; 0 for a sweep that takes none
	title    string        // caption over the aligned table
	cols     []column
	csv      string // CSV header line
	run      func(seed int64, d time.Duration) ([]point, error)
}

// asPoints adapts a sweep function that returns its own point type.
func asPoints[P point](run func(int64, time.Duration) ([]P, error)) func(int64, time.Duration) ([]point, error) {
	return func(seed int64, d time.Duration) ([]point, error) {
		ps, err := run(seed, d)
		out := make([]point, len(ps))
		for i, p := range ps {
			out[i] = p
		}
		return out, err
	}
}

// sweeps is the model report, in the order its blocks are written. Every
// sweep runs on the virtual clock, so the report is a function of its seed
// and regenerates byte for byte.
var sweeps = []sweep{
	{
		name: "points", duration: 10 * time.Second, run: asPoints(pointsSweep),
		title: "resilience matrix: 16 objects written every 50ms against a sweep of loss rates",
		cols: []column{{"config", 9}, {"loss", 6}, {"admitted", 9}, {"resp mean", 10}, {"resp p99", 10},
			{"distance", 10}, {"sends", 7}, {"gaps", 6}, {"retx sent", 10}, {"retx held", 10}, {"excursions", 0}},
		csv: "name,loss,admitted,response_mean_ms,response_p99_ms,distance_avg_max_ms,sends,gaps,retransmit_requests,retransmit_suppressed,excursions",
	},
	{
		name: "rejoin", run: asPoints(func(seed int64, _ time.Duration) ([]rejoinPoint, error) { return rejoinSweep(seed) }),
		title: "rejoin transfer: disk-fast restart vs full network anti-entropy (100 objects, 4 hot)",
		cols:  []column{{"loss", 6}, {"mode", 9}, {"transfer", 12}, {"catch-up", 12}, {"restored", 9}, {"speedup", 0}},
		csv:   "loss,mode,transfer_ms,catch_up_ms,restored_objects,speedup_vs_network",
	},
	{
		name: "shard", duration: 2 * time.Second, run: asPoints(shardSweep),
		title: "capacity vs shard count (admission-aware placement, identical object set)",
		cols:  []column{{"shards", 7}, {"offered", 8}, {"admitted", 9}, {"writes/sec", 14}, {"mean util", 0}},
		csv:   "shards,offered,admitted,writes_per_sec,mean_utilization",
	},
	{
		name: "clocksync", run: asPoints(func(seed int64, _ time.Duration) ([]clocksyncPoint, error) { return clocksyncSweep(seed) }),
		title: "clock-skew tolerance: admitted capacity (SkewMargin over a 12-rung δB ladder) and verified bounds (backup booted skewed, correction on/off)",
		cols:  []column{{"skew", 8}, {"admitted", 10}, {"sync-viol", 11}, {"sync-gray", 11}, {"sync-θ", 9}, {"raw-viol", 0}},
		csv:   "skew_ms,admitted,offered,sync_violation_ms,sync_unverifiable_ms,sync_theta_ms,raw_violation_ms",
	},
	{
		name: "gateway", duration: 2 * time.Second, run: asPoints(gatewaySweep),
		title: "gateway broadcast fan-out vs subscriber scale (2 shards, 2 objects/group)",
		cols: []column{{"sessions", 9}, {"groups", 7}, {"broadcasts", 11}, {"fanout msg/s", 14},
			{"p99 age ms", 11}, {"max age ms", 11}, {"violations", 11}, {"reads/tick", 0}},
		csv: "sessions,groups,broadcasts,fanout_msgs_per_sec,p99_age_ms,max_age_ms,bound_violations,cert_reads_per_tick",
	},
	{
		name: "observers", duration: 2 * time.Second, run: asPoints(observersSweep),
		title: "observer-tier read offload vs tier size and chain depth (1 shard, 4 objects)",
		cols: []column{{"observers", 10}, {"depth", 7}, {"reads/s", 12}, {"scaling", 9}, {"obs share", 10},
			{"p99 age ms", 11}, {"max age ms", 11}, {"max depth", 11}, {"violations", 0}},
		csv: "observers,chain_depth,reads_per_sec,scaling_vs_primary_only,observer_share,p99_age_ms,max_age_ms,max_served_depth,honesty_violations",
	},
}

// findSweep returns the sweep table row with the given name, or nil.
func findSweep(name string) *sweep {
	for i := range sweeps {
		if sweeps[i].name == name {
			return &sweeps[i]
		}
	}
	return nil
}

// options are the flags every sweep, and the full report, share.
type options struct {
	seed     *int64
	duration *time.Duration
	csv      *bool
	json     *bool
	jsonPath *string
}

func newFlags(name string, duration time.Duration, durationUsage string) (*flag.FlagSet, options) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return fs, options{
		seed:     fs.Int64("seed", 1, "random seed for loss and jitter"),
		duration: fs.Duration("duration", duration, durationUsage),
		csv:      fs.Bool("csv", false, "emit CSV instead of an aligned table"),
		json:     fs.Bool("json", false, "write the JSON model report (a sweep replaces its own block)"),
		jsonPath: fs.String("json.out", "BENCH_rtpb.json", "path of the -json report"),
	}
}

// runSweep implements "rtpbench <sweep>": print the sweep's table or CSV,
// and with -json replace its block in the report.
func runSweep(s *sweep, args []string) error {
	fs, o := newFlags("rtpbench "+s.name, s.duration, "virtual measurement interval per cell (rejoin and clocksync fix their own)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep := report{}
	if *o.json {
		var err error
		if rep, err = readReport(*o.jsonPath); err != nil {
			return err
		}
	}
	ps, err := rep.add(s, *o.seed, *o.duration)
	if err != nil {
		return err
	}
	s.print(os.Stdout, ps, *o.csv)
	if !*o.json {
		return nil
	}
	return rep.write(*o.jsonPath)
}

// runReport implements "rtpbench -json": run every sweep and write every
// block. A zero duration runs each sweep at its own default.
func runReport(path string, seed int64, duration time.Duration) error {
	rep := report{}
	for i := range sweeps {
		if _, err := rep.add(&sweeps[i], seed, duration); err != nil {
			return err
		}
	}
	return rep.write(path)
}

// print writes the sweep's points as an aligned table under its title,
// or as CSV.
func (s *sweep) print(w io.Writer, ps []point, csv bool) {
	if csv {
		fmt.Fprintln(w, s.csv)
	} else {
		fmt.Fprintln(w, s.title)
		head := make([]string, len(s.cols))
		for i, c := range s.cols {
			head[i] = c.head
		}
		s.line(w, head)
	}
	for _, p := range ps {
		switch cells := p.cells(csv); {
		case cells == nil:
		case csv:
			fmt.Fprintln(w, strings.Join(cells, ","))
		default:
			s.line(w, cells)
		}
	}
}

func (s *sweep) line(w io.Writer, cells []string) {
	var b strings.Builder
	for i, c := range cells[:len(cells)-1] {
		fmt.Fprintf(&b, "%-*s ", s.cols[i].width, c)
	}
	fmt.Fprintln(w, b.String()+cells[len(cells)-1])
}

// report is BENCH_rtpb.json by top-level key: a "model" kind stamp, the
// seed, the points block's interval as duration_ms, and one block per
// sweep.
type report map[string]json.RawMessage

// readReport reads the report at path; a missing file starts an empty one.
func readReport(path string) (report, error) {
	rep := report{}
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return rep, nil
	} else if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return rep, nil
}

// add runs one sweep at seed and duration (zero: the sweep's default) and
// sets its block. The report keeps a seed it already has.
func (rep report) add(s *sweep, seed int64, duration time.Duration) ([]point, error) {
	if duration == 0 {
		duration = s.duration
	}
	ps, err := s.run(seed, duration)
	if err != nil {
		return nil, fmt.Errorf("%s sweep: %w", s.name, err)
	}
	if err := rep.set(s.name, ps); err != nil {
		return nil, err
	}
	if _, ok := rep["seed"]; !ok {
		err = rep.set("seed", seed)
	}
	if s.name == "points" && err == nil {
		err = rep.set("duration_ms", float64(duration)/float64(time.Millisecond))
	}
	return ps, err
}

func (rep report) set(key string, v any) error {
	data, err := json.Marshal(v)
	rep[key] = data
	return err
}

// write writes the report with its keys in sweep-table order. A block no
// sweep produces any more is dropped.
func (rep report) write(path string) error {
	rep["kind"] = json.RawMessage(`"model"`)
	keys := []string{"kind", "seed", "duration_ms"}
	for _, s := range sweeps {
		keys = append(keys, s.name)
	}
	var b bytes.Buffer
	sep := "{"
	for _, k := range keys {
		if v, ok := rep[k]; ok {
			fmt.Fprintf(&b, "%s\n  %q: ", sep, k)
			if err := json.Indent(&b, v, "  ", "  "); err != nil {
				return err
			}
			sep = ","
		}
	}
	b.WriteString("\n}\n")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
