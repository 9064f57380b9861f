// Command benchmark is the repository's wall-clock benchmark: seven
// workloads run against unmodified production code with production
// defaults, every layer timed from outside. See README.md in this
// directory for the glossary and BENCHMARK.json at the repository root for
// the gated metrics and their bounds.
//
//	go run ./benchmark --workload steady --seed 1 --seconds 13 --trace 0   (acceptance driver)
//	go run ./benchmark all            every workload, then the layer suite and the traced runs
//	go run ./benchmark run steady     one workload
//	go run ./benchmark trace pump     one traced run
//	go run ./benchmark layers         the layer suite only
//	go run ./benchmark compare A.json B.json
//	go run ./benchmark repeat         two sets of runs of this tree must agree
//	go run ./benchmark manifest       print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sig
		runCleanups()
		os.Exit(130)
	}()
	code := run(os.Args[1:])
	runCleanups()
	os.Exit(code)
}

func run(args []string) int {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, rest := args[0], args[1:]
		switch cmd {
		case "all":
			return cmdAll(rest)
		case "run", "trace":
			return cmdRun(cmd == "trace", rest)
		case "layers":
			return cmdLayers(rest)
		case "compare":
			return cmdCompare(rest)
		case "repeat":
			return cmdRepeat(rest)
		case "manifest":
			fmt.Println(manifestJSON())
			return 0
		default:
			fmt.Fprintf(os.Stderr, "benchmark: unknown command %q (all, run, trace, layers, compare, repeat, manifest)\n", cmd)
			return 2
		}
	}
	return cmdDriver(args)
}

// cmdDriver is the acceptance driver's entry point: one workload, one
// seed, and as the last line of standard output one JSON object. The other
// commands run each of their workloads through it in a child process.
func cmdDriver(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for object order, phase offsets, payload bytes and the model")
	seconds := fs.Int("seconds", runSeconds, "length of the measured window")
	trace := fs.Int("trace", 0, "0: report the end-to-end metrics; 1: run the layer suite and the traced run and report the per-layer metrics")
	reportPath := fs.String("report", "", "write the whole report to this file as JSON and print no table (how the other commands collect a child's run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !(knownWorkload(*workload) || *workload == layersOnly) || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: --workload must be one of %s, --seconds at least 1\n", workloadNames())
		return 2
	}
	if _, err := repoRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var rep *report
	finished := true
	switch {
	case *workload == layersOnly:
		rep, finished = layerSuite(*seed)
	case *trace == 0:
		rep, finished = runWorkload(*workload, *seed, *seconds, false)
	default:
		rep, finished = runTraced(*workload, *seed, *seconds)
	}
	if *reportPath == "" {
		rep.print(os.Stderr)
	} else if err := writeJSON(*reportPath, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(rep.driverLine())
	// An unfinished workload still has goroutines (and perhaps a starved
	// clock loop) running; main exits the process right after this returns.
	if !finished || !rep.Correct {
		return 1
	}
	return 0
}

// layersOnly is the pseudo-workload a child runs for `layers`.
const layersOnly = "layers"

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// nominal is how long a workload is expected to take at a run length; the
// watchdog allows twice that.
func nominal(workload string, seconds int, traced bool) time.Duration {
	d := time.Duration(seconds) * time.Second
	switch workload {
	case "ramp":
		d = d*time.Duration(rampReference+(len(ladder)-1)*rampRung+rampClosed)/100 + 8*time.Second // every rung, the drains
	case "failover":
		d = failoverTrial * (d/20 + 1500*time.Millisecond)
	case "model":
		d *= 3 // the repetitions run at whatever speed the simulator has
	}
	d += 5 * time.Second // set-ups, warm-up, drain, daemon build
	if traced {
		d += 10 * time.Second
	}
	return d
}

// The sizing host is a shared VM whose virtual CPUs now and then stand
// still: for 15 to 75 ms a few times a minute, which the system rides out,
// and in about a quarter of all 13 s runs for 130 ms to 1.4 s at a stretch,
// which ages backup images past delta_B and decides every tail. The steal
// counter explains some of these stops and not others, and one CPU can stop
// while the other runs, so a canary watches each: a thread of the benchmark
// bound to that CPU, sleeping canaryPeriod at a time and remembering the
// longest it overslept.
//
// A run in which a canary overslept by stallLimit or more is disturbed and
// is measured again, whole, at most maxAttempts times; if every attempt was
// disturbed the least disturbed is reported as it is, reads over delta_B
// included. Nothing is ever cut out of a run. stallLimit is far above what
// the program under test can do to a canary: however busy its loops are,
// the Go scheduler preempts a goroutine after 10 ms and the kernel a thread
// sooner, so a canary sharing two processors with a handful of spinning
// goroutines runs again within two or three such quanta. Only the CPU
// stopping keeps it asleep for a tenth of a second, which is also about
// what the slack on delta_B absorbs. A fifth of all attempts see such a
// stop; three attempts keep the driver's 136 runs inside its hour.
const (
	canaryPeriod = 10 * time.Millisecond
	stallLimit   = 100 * time.Millisecond
	maxAttempts  = 3
)

// ridesOutStalls names the workloads that are not measured again: their
// numbers are medians over twenty trials and a decile of forty repetitions,
// so a stop spoils one trial or repetition and not the run.
var ridesOutStalls = map[string]bool{"failover": true, "model": true}

// watchHost starts one canary per CPU; the function it returns stops them
// and reports the longest any of them overslept.
func watchHost() (longest func() time.Duration) {
	stop := make(chan struct{})
	worst := make([]time.Duration, runtime.NumCPU())
	var wg sync.WaitGroup
	for cpu := range worst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The thread stays bound and locked: it ends with the goroutine.
			runtime.LockOSThread()
			if err := bindToCPU(cpu); err != nil {
				return // the CPU is not ours to run on; the others are watched
			}
			for {
				due := time.Now().Add(canaryPeriod)
				select {
				case <-stop:
					return
				case <-time.After(canaryPeriod):
				}
				if late := time.Since(due); late > worst[cpu] {
					worst[cpu] = late
				}
			}
		}()
	}
	return func() time.Duration {
		close(stop)
		wg.Wait()
		return slices.Max(worst)
	}
}

// runWorkload runs one workload in this process, untraced (or, for the
// in-process ones, with hooks and the transport decorator when traced is
// set), under the watchdog, again if the host disturbed it. It reports
// false when the watchdog fired: the report is then frozen, the workload's
// goroutines are still running, and the caller must see to it that the
// process exits.
func runWorkload(workload string, seed int64, seconds int, traced bool) (*report, bool) {
	measure := time.Duration(seconds) * time.Second
	var best *report
	var bestStall time.Duration
	var stalls []string
	for attempt := 1; ; attempt++ {
		rep := newReport(workload, seed, seconds, traced)
		fn := map[string]func(int64, time.Duration, *report){"ctl": runCtl, "failover": runFailover, "model": runModel}[workload]
		if live, ok := liveWorkloads()[workload]; ok {
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			fn = func(seed int64, measure time.Duration, rep *report) { runLive(live, seed, measure, tr, rep) }
		}
		longest := watchHost()
		if !watchdog(nominal(workload, seconds, traced), rep, func() { fn(seed, measure, rep) }) {
			return rep, false
		}
		stall := longest()
		rep.set("host.stall_max_ms", float64(stall)/float64(time.Millisecond), 0)
		stalls = append(stalls, stall.Round(time.Millisecond).String())
		if best == nil || stall < bestStall {
			best, bestStall = rep, stall
		}
		if stall < stallLimit || attempt == maxAttempts || ridesOutStalls[workload] {
			break
		}
	}
	if len(stalls) > 1 {
		best.note("measured %d times because the host stood still for %v or more (longest stop per attempt: %s); this is the least disturbed attempt",
			len(stalls), stallLimit, strings.Join(stalls, ", "))
	}
	return best, true
}

// runTraced is a --trace 1 run: the layer suite, then the workload. An
// in-process workload runs twice, untraced for a third of the time and
// then with hooks and the transport decorator for two thirds, so the
// tracing overhead is measured in the same process on the same host.
func runTraced(workload string, seed int64, seconds int) (*report, bool) {
	rep := newReport(workload, seed, seconds, true)
	layers, ok := layerSuite(seed)
	rep.merge(layers)
	if !ok {
		return rep, false
	}
	if _, live := liveWorkloads()[workload]; !live {
		run, ok := runWorkload(workload, seed, seconds, false)
		rep.merge(run)
		rep.Attempted, rep.Failed = run.Attempted, run.Failed
		return rep, ok
	}
	plain, ok := runWorkload(workload, seed, max(seconds/3, 2), false)
	if !plain.Correct {
		rep.problem("untraced reference run: %s", strings.Join(plain.Problems, "; "))
	}
	if !ok {
		return rep, false
	}
	traced, ok := runWorkload(workload, seed, max(seconds*2/3, 3), true)
	rep.merge(traced)
	rep.Attempted, rep.Failed = traced.Attempted, traced.Failed
	rep.TraceFile = traced.TraceFile
	if base := plain.Metrics["write_mid_us"].Value; base > 0 {
		rep.set("trace.overhead_pct", (traced.Metrics["write_mid_us"].Value/base-1)*100, 0)
		rep.note("untraced reference: write_mid_us %.1f, propagate_p50_us %.1f", base, plain.Metrics["propagate_p50_us"].Value)
	}
	return rep, ok
}

func layerSuite(seed int64) (*report, bool) {
	layers := newReport(layersOnly, seed, 0, true)
	return layers, watchdog(15*time.Second, layers, func() { runLayers(layers) })
}

// watchdog runs fn and gives it twice its nominal time. On expiry every
// goroutine's stack goes to standard error and the report is frozen with
// whatever was outstanding counted as failed. fn's goroutine cannot be
// stopped from here — a starved RealClock loop never looks at its stop
// channel — so the process has to end: a workload always runs in a process
// that exits when it is over.
func watchdog(nominal time.Duration, rep *report, fn func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return true
	case <-time.After(2 * nominal):
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its deadline of %v; goroutines:\n%s\n", rep.Workload, 2*nominal, buf)
		rep.expire(2 * nominal)
		return false
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bound: it is 0 and omitted
}

const runSeconds = 13

func manifestJSON() string {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  driverWorkloads(),
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers always marshal
	}
	return string(b)
}
