package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
)

// Verdicts of compare, one per workload x end-to-end metric the workload
// measures natively (a stand-in cell is not judged: it measures nothing).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	unresolved = "unresolved"
	regressed  = "regressed"
	missing    = "missing"
)

// minPairs is how many parent/change pairs a claimed gain needs
// (choosing-metrics §8).
const minPairs = 10

// comparison is one row of compare's table.
type comparison struct {
	workload, metric string
	medianA, medianB float64
	change           float64 // share of A's median by which B is worse (negative: better); for a share, the difference
	bound            float64
	wins, pairs      int
	spreadA          float64
	verdict          string
}

// judge applies a metric's bound and direction to a parent set a and a
// change set b, pairing the i-th run of each:
//
//   - regressed: b's median is worse than a's by more than the bound;
//   - improved: at least ten pairs, b wins nine tenths of them (ties count
//     for neither side) and the medians differ by more than the distance
//     between a's quartiles;
//   - unresolved: neither, and a's own spread exceeds the bound, so
//     "no worse than the bound" cannot be told from noise;
//   - unchanged otherwise.
func judge(def metricDef, a, b samples) comparison {
	bound := def.Bound
	if bound == 0 {
		bound = def.cmpBound
	}
	c := comparison{metric: def.Name, bound: bound, verdict: missing}
	if len(a) == 0 || len(b) == 0 {
		return c
	}
	c.medianA, c.medianB = a.median(), b.median()
	worse := func(x, y float64) float64 { // how much worse y is than x, in x's units
		if def.Better == higher {
			return x - y
		}
		return y - x
	}
	// A share is compared absolutely: most of them are 0 at the parent.
	q1, _, q3 := a.quartiles()
	c.spreadA = q3 - q1
	switch {
	case def.absolute:
		c.change = worse(c.medianA, c.medianB)
	case c.medianA != 0:
		c.change = worse(c.medianA, c.medianB) / math.Abs(c.medianA)
		c.spreadA = a.spread()
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if worse(a[i], b[i]) < 0 {
			c.wins++
		}
	}
	switch {
	case c.change > bound:
		c.verdict = regressed
	case c.pairs >= minPairs && float64(c.wins) >= 0.9*float64(c.pairs) && c.change < 0 && math.Abs(c.medianB-c.medianA) > q3-q1:
		c.verdict = improved
	case c.spreadA > bound:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// valuesOf collects one metric's values over a workload's untraced runs,
// in file order.
func valuesOf(f *resultsFile, workload, metric string) samples {
	var s samples
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if m, ok := r.Metrics[metric]; ok {
				s.add(m.Value)
			}
		}
	}
	return s
}

// compared are the metrics compare judges: the gated ones and the issue's
// end-to-end metrics that were demoted, each on its native workloads.
func compared() []metricDef {
	out := append([]metricDef(nil), endToEnd...)
	for _, d := range perLayer {
		if d.native != nil {
			out = append(out, d)
		}
	}
	return out
}

func compareFiles(a, b *resultsFile) []comparison {
	var rows []comparison
	for _, w := range workloads {
		for _, def := range compared() {
			if !def.nativeOn(w.Name) {
				continue
			}
			c := judge(def, valuesOf(a, w.Name, def.Name), valuesOf(b, w.Name, def.Name))
			c.workload = w.Name
			rows = append(rows, c)
		}
	}
	return rows
}

func printComparisons(rows []comparison) (regressions int) {
	fmt.Printf("%-9s %-22s %14s %14s %9s %7s %7s %9s  %s\n",
		"workload", "metric", "median A", "median B", "worse by", "bound", "wins", "spread A", "verdict")
	for _, c := range rows {
		if c.verdict == missing {
			continue
		}
		if c.verdict == regressed {
			regressions++
		}
		fmt.Printf("%-9s %-22s %14s %14s %8.1f%% %6.1f%% %4d/%-2d %8.1f%%  %s\n",
			c.workload, c.metric, formatValue(c.medianA), formatValue(c.medianB),
			c.change*100, c.bound*100, c.wins, c.pairs, c.spreadA*100, c.verdict)
	}
	return regressions
}

// cmdCompare compares two results files: A is the parent, B the change.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: compare takes two results files, parent then change")
		return 2
	}
	var files [2]*resultsFile
	for i, path := range args {
		f, err := readResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		files[i] = f
	}
	fmt.Println("A:", files[0].Host)
	fmt.Println("B:", files[1].Host)
	if printComparisons(compareFiles(files[0], files[1])) > 0 {
		return 1
	}
	return 0
}

// cmdRepeat runs two interleaved sets of runs of this tree and fails if
// any gated metric's medians disagree, on a workload that measures it, by
// more than its own bound: the benchmark has to repeat before it can hold
// anything else to account.
func cmdRepeat(args []string) int {
	fs := flag.NewFlagSet("benchmark repeat", flag.ContinueOnError)
	n := fs.Int("n", 3, "runs per set and workload, each on its own seed")
	seed := fs.Int64("seed", 1, "first seed")
	seconds := fs.Int("seconds", runSeconds, "length of each measured window")
	only := fs.String("workloads", "", "comma-separated subset (default: all)")
	out := fs.String("out", "", "write the sets to <out>.A.json and <out>.B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := repoRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	host := stampHost()
	sets := [2]*resultsFile{{Host: host}, {Host: host}}
	fmt.Println("host:", host)
	for _, w := range workloads {
		if *only != "" && !strings.Contains(","+*only+",", ","+w.Name+",") {
			continue
		}
		for i := 0; i < *n; i++ {
			for s := range sets {
				// Alternate which set goes first, as paired runs do.
				set := sets[(s+i)%2]
				r := runChild(w.Name, *seed+int64(i), *seconds, false)
				if !r.Correct {
					r.print(os.Stdout)
				}
				set.Runs = append(set.Runs, r)
			}
		}
	}
	if *out != "" {
		for i, suffix := range []string{".A.json", ".B.json"} {
			if err := sets[i].write(*out + suffix); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
		}
	}
	bad := 0
	fmt.Printf("%-9s %-20s %14s %14s %9s %7s %9s %9s\n", "workload", "metric", "median A", "median B", "differ", "bound", "spread A", "spread B")
	for _, w := range workloads {
		for _, def := range endToEnd {
			a, b := valuesOf(sets[0], w.Name, def.Name), valuesOf(sets[1], w.Name, def.Name)
			if len(a) == 0 || !def.nativeOn(w.Name) {
				continue
			}
			differ := 0.0
			if a.median() != 0 {
				differ = math.Abs(b.median()-a.median()) / math.Abs(a.median())
			}
			flag := ""
			if differ > def.Bound {
				flag = "  DISAGREE"
				bad++
			}
			fmt.Printf("%-9s %-20s %14s %14s %8.1f%% %6.0f%% %8.1f%% %8.1f%%%s\n", w.Name, def.Name,
				formatValue(a.median()), formatValue(b.median()), differ*100, def.Bound*100, a.spread()*100, b.spread()*100, flag)
		}
	}
	if bad > 0 || exitCode(append(sets[0].Runs, sets[1].Runs...)) != 0 {
		return 1
	}
	return 0
}
