package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostStamp is written into every results file: numbers clocked on one
// host mean little on another.
type hostStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	// TimerGranularityUs is how long after its 200 us deadline a
	// time.NewTimer fires on this host, median of 50.
	TimerGranularityUs float64 `json:"timer_granularity_us"`
	When               string  `json:"when"`
}

func stampHost() hostStamp {
	var late samples
	for i := 0; i < 50; i++ {
		const d = 200 * time.Microsecond
		t0 := time.Now()
		<-time.NewTimer(d).C
		late.addDur(time.Since(t0))
	}
	return hostStamp{
		GoVersion:          runtime.Version(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
		Kernel:             kernelRelease(),
		TimerGranularityUs: late.median(),
		When:               time.Now().UTC().Format(time.RFC3339),
	}
}

func (h hostStamp) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d kernel=%s; a 200us timer fires after %.0f us",
		h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.Kernel, h.TimerGranularityUs)
}

// resultsFile is what `all`, `run` and `repeat` write and `compare` reads.
type resultsFile struct {
	Host hostStamp `json:"host"`
	Runs []*report `json:"runs"`
}

func (f *resultsFile) write(path string) error {
	if path == "" {
		return nil
	}
	return writeJSON(path, f)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

type runFlags struct {
	fs      *flag.FlagSet
	seed    *int64
	seconds *int
	out     *string
}

func newRunFlags(name string, seconds int) runFlags {
	fs := flag.NewFlagSet("benchmark "+name, flag.ContinueOnError)
	return runFlags{fs,
		fs.Int64("seed", 1, "workload seed"),
		fs.Int("seconds", seconds, "length of each measured window"),
		fs.String("out", "", "write the results to this JSON file (for compare)")}
}

func exitCode(runs []*report) int {
	for _, r := range runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// session is one invocation's results file in the making. begin refuses
// to start outside a checkout; add prints a run and keeps it; end writes
// the file, if one was asked for, and gives the exit code.
type session struct {
	res resultsFile
	out string
}

func begin(out string) (*session, bool) {
	if _, err := repoRoot(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return nil, false
	}
	s := &session{res: resultsFile{Host: stampHost()}, out: out}
	fmt.Println("host:", s.res.Host)
	return s, true
}

func (s *session) add(r *report) {
	r.print(os.Stdout)
	s.res.Runs = append(s.res.Runs, r)
}

func (s *session) end() int {
	if err := s.res.write(s.out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return exitCode(s.res.Runs)
}

// childSeq numbers the report files of one invocation's children.
var childSeq int

// runChild runs one workload (or the layer suite) in a fresh process and
// reads its report back. A workload that hangs cannot be stopped from
// inside its process — a starved RealClock loop never returns to look at
// its stop channel — and its spinning loops and generator thread would
// skew every later workload, so `all`, `run`, `trace`, `layers` and
// `repeat` give each run a process of its own, which the child's watchdog
// ends.
func runChild(workload string, seed int64, seconds int, traced bool) *report {
	rep := newReport(workload, seed, seconds, traced)
	exe, err := os.Executable()
	if err != nil {
		rep.problem("%v", err)
		return rep
	}
	dir, err := buildDir()
	if err != nil {
		rep.problem("%v", err)
		return rep
	}
	childSeq++
	path := filepath.Join(dir, fmt.Sprintf("report-%d-%d.json", os.Getpid(), childSeq))
	defer os.Remove(path)
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", trace, "--report", path)
	cmd.Stderr = os.Stderr // stack dumps of a watchdog expiry; the driver line on stdout is dropped
	ownProcessGroup(cmd)
	if err := cmd.Start(); err != nil {
		rep.problem("%v", err)
		return rep
	}
	cancel := onExit(func() { killGroup(cmd) })
	defer cancel()
	// The child's watchdogs end it; this only catches a child that cannot
	// even do that. A traced run is the layer suite and two workload runs,
	// and the host may have each run measured maxAttempts times.
	limit := time.AfterFunc(2*maxAttempts*nominal(workload, seconds, traced)+time.Minute, func() { killGroup(cmd) })
	runErr := cmd.Wait() // non-zero for an incorrect run; the report says why
	limit.Stop()
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, rep)
	}
	if err != nil {
		rep.problem("child left no report: %v (%v)", err, runErr)
	}
	return rep
}

// cmdAll runs every workload untraced, then the traced run (which starts
// with the layer suite) of steady, pump and bulk, and prints every metric
// by name.
func cmdAll(args []string) int {
	f := newRunFlags("all", 20)
	if err := f.fs.Parse(args); err != nil {
		return 2
	}
	s, ok := begin(*f.out)
	if !ok {
		return 1
	}
	for _, w := range workloads {
		s.add(runChild(w.Name, *f.seed, *f.seconds, false))
	}
	for _, name := range []string{"steady", "pump", "bulk"} {
		// The issue's traced run is 8 s with hooks and decorator installed;
		// a traced child spends two thirds of its time that way.
		s.add(runChild(name, *f.seed, 12, true))
	}
	return s.end()
}

// cmdRun runs the named workloads once each, traced or not.
func cmdRun(traced bool, args []string) int {
	f := newRunFlags("run", 20)
	var names []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		names, args = append(names, args[0]), args[1:]
	}
	if err := f.fs.Parse(args); err != nil {
		return 2
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: name one or more of %s\n", workloadNames())
		return 2
	}
	for _, name := range names {
		if !knownWorkload(name) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (%s)\n", name, workloadNames())
			return 2
		}
	}
	s, ok := begin(*f.out)
	if !ok {
		return 1
	}
	for _, name := range names {
		s.add(runChild(name, *f.seed, *f.seconds, traced))
	}
	return s.end()
}

func cmdLayers(args []string) int {
	f := newRunFlags("layers", 1)
	if err := f.fs.Parse(args); err != nil {
		return 2
	}
	s, ok := begin(*f.out)
	if !ok {
		return 1
	}
	s.add(runChild(layersOnly, *f.seed, 1, true))
	return s.end()
}
