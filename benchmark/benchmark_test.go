package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		used float64
	}{
		{10000, 0.999, 0.999},
		{9999, 0.999, 0.99},
		{10000, 0.99, 0.99}, // never above what was asked for
		{1000, 0.99, 0.99},
		{999, 0.99, 0.95},
		{200, 0.99, 0.95},
		{199, 0.99, 0.90},
		{100, 0.99, 0.90},
		{99, 0.99, 0.75},
		{40, 0.99, 0.75},
		{39, 0.99, 0.50},
		{20, 0.99, 0.50}, // the failover trials: a median only
		{0, 0.99, 0.50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.used {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var s samples
	for i := 10; i >= 1; i-- {
		s.add(float64(i))
	}
	q1, q2, q3 := s.quartiles()
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got, want := s.spread(), 5.5/5.5; got != want {
		t.Fatalf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = samples{4, 1, 2}.quartiles()
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles of three = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

func TestMidmeanIgnoresBothTails(t *testing.T) {
	// Two teeth of a comb, a stall and a freak: the middle half is 3 x 1000
	// and 3 x 2000 whatever the outliers are.
	s := samples{90000, 1000, 2000, 1000, 2000, 1000, 2000, 1000, 2000, 1000, 2000, 5}
	if got := s.midmean(); got != 1500 {
		t.Errorf("midmean = %g, want 1500", got)
	}
	if got := (samples{7}).midmean(); got != 7 {
		t.Errorf("midmean of one = %g", got)
	}
	if got := (samples{}).midmean(); got != 0 {
		t.Errorf("midmean of nothing = %g", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := samples{10, 20, 30, 40}
	if got := s.median(); got != 25 {
		t.Errorf("median = %g, want 25", got)
	}
	if got := s.quantile(1); got != 40 {
		t.Errorf("max = %g, want 40", got)
	}
	if got := (samples{}).median(); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func windowOf(latUs float64, n, failed, violations int) windowStats {
	ws := windowStats{attempted: n, failed: failed, violations: violations}
	for i := 0; i < n-failed; i++ {
		ws.writeUs.add(latUs)
	}
	return ws
}

func TestLadderVerdicts(t *testing.T) {
	lateWindow := windowOf(1200, 1000, 0, 0)
	lateWindow.late = 2
	cases := []struct {
		name string
		ws   windowStats
		lag  float64
		want string
	}{
		{"clean rung passes", windowOf(1200, 1000, 0, 0), 20, "pass"},
		{"tail over 5 ms fails", windowOf(5200, 1000, 0, 0), 20, "p99 5200 us > 5000 us"},
		{"a late generator is not the system's failure", windowOf(9000, 1000, 300, 4), 650, "generator_limited"},
		{"backlog: under 99.5 % completed", windowOf(1200, 1000, 6, 0), 20, "only 99.4% completed"},
		{"any failure fails", windowOf(1200, 1000, 1, 0), 20, "1 failed"},
		{"on a rung a late write is a failed one", lateWindow, 20, "2 failed"},
		{"a broken bound fails", windowOf(1200, 1000, 0, 2), 20, "2 bound violations"},
		{"few samples are judged at the percentile they support", windowOf(5200, 300, 0, 0), 20, "p95 5200 us > 5000 us"},
	}
	for _, c := range cases {
		if got := judgeRung(400, c.ws, c.lag).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareRule(t *testing.T) {
	lowerBetter := metricDef{Name: "write_p50_us", Better: lower, Bound: 0.10}
	higherBetter := metricDef{Name: "apply_per_s", Better: higher, Bound: 0.10}
	rep := func(v float64, n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = v + float64(i%3) // a little spread: 0, 1, 2
		}
		return s
	}
	cases := []struct {
		name string
		def  metricDef
		a, b samples
		want string
	}{
		{"ten of ten wins beyond the parent's quartiles", lowerBetter, rep(1000, 10), rep(900, 10), improved},
		{"nine pairs are not enough to claim a gain", lowerBetter, rep(1000, 9), rep(900, 9), unchanged},
		{"a gain inside the parent's own spread is no gain", lowerBetter, rep(1000, 10), rep(999.5, 10), unchanged},
		{"worse by more than the bound", lowerBetter, rep(1000, 10), rep(1120, 10), regressed},
		{"worse but within the bound", lowerBetter, rep(1000, 10), rep(1050, 10), unchanged},
		{"for a rate, lower is worse", higherBetter, rep(500, 10), rep(430, 10), regressed},
		{"for a rate, higher wins", higherBetter, rep(500, 10), rep(560, 10), improved},
		{"parent noisier than the bound cannot show unchanged", lowerBetter, samples{800, 1000, 1200, 900, 1100, 1300, 700, 1000, 1000, 1000}, rep(1000, 10), unresolved},
		{"nothing to compare", lowerBetter, nil, rep(1000, 10), missing},
	}
	for _, c := range cases {
		if got := judge(c.def, c.a, c.b); got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.want, got)
		}
	}
	// Eight wins and two losses of ten is under nine tenths.
	a := rep(1000, 10)
	b := rep(900, 10)
	b[0], b[1] = 1100, 1100
	if got := judge(lowerBetter, a, b); got.verdict == improved || got.wins != 8 {
		t.Errorf("8/10 wins judged %q with %d wins", got.verdict, got.wins)
	}
}

func TestCompareJudgesSharesAbsolutelyAndSkipsStandIns(t *testing.T) {
	share, ok := findMetric("bound_violation_share")
	if !ok || !share.absolute || share.cmpBound != violationSlack {
		t.Fatalf("bound_violation_share = %+v", share)
	}
	zero := make(samples, 10)
	if got := judge(share, zero, samples{0.001, 0.001, 0.001, 0.001, 0.001, 0.001, 0.001, 0.001, 0.001, 0.001}); got.verdict != unchanged {
		t.Errorf("0 -> 0.001 judged %q, want unchanged", got.verdict)
	}
	if got := judge(share, zero, samples{0.003, 0.003, 0.003, 0.003, 0.003, 0.003, 0.003, 0.003, 0.003, 0.003}); got.verdict != regressed {
		t.Errorf("0 -> 0.003 judged %q, want regressed", got.verdict)
	}

	run := func(workload string) *report {
		r := newReport(workload, 1, 1, false)
		for _, d := range compared() {
			r.set(d.Name, 1, 1)
		}
		return r
	}
	f := &resultsFile{Runs: []*report{run("failover"), run("model"), run("steady")}}
	for _, c := range compareFiles(f, f) {
		def, _ := findMetric(c.metric)
		if !def.nativeOn(c.workload) {
			t.Errorf("compare judged the stand-in cell %s x %s", c.workload, c.metric)
		}
	}
	for cell, want := range map[[2]string]bool{
		{"failover", "stale_p99_ms"}: false, {"failover", "outage_p50_ms"}: true, {"failover", "write_mid_us"}: true,
		{"pump", "write_mid_us"}: false, {"model", "write_per_s"}: true, {"model", "sim_x_realtime"}: true,
		{"steady", "write_per_s"}: false, {"ramp", "write_per_s"}: true, {"ctl", "propagate_p50_us"}: false, {"ctl", "apply_per_s"}: true,
	} {
		def, _ := findMetric(cell[1])
		if got := def.nativeOn(cell[0]); got != want {
			t.Errorf("%s native on %s = %v, want %v", cell[1], cell[0], got, want)
		}
	}
}

// TestExpiredReportStopsChanging: after the watchdog's verdict the
// abandoned workload may keep reporting; none of it may land.
func TestExpiredReportStopsChanging(t *testing.T) {
	rep := newReport("steady", 1, 1, false)
	rep.set("write_p50_us", 1200, 10)
	rep.issued.Store(50)
	rep.completed.Store(44)
	rep.expire(time.Second)
	done := make(chan struct{})
	go func() { // the abandoned workload, still going (run with -race)
		defer close(done)
		for i := 0; i < 1000; i++ {
			rep.set("write_p50_us", 1, 1)
			rep.problem("late")
			rep.note("late")
			rep.ops(1, 0)
		}
	}()
	line := rep.driverLine()
	<-done
	if rep.Correct || rep.Attempted != 50 || rep.Failed != 6 || rep.Metrics["write_p50_us"].Value != 1200 || len(rep.Problems) != 1 || len(rep.Notes) != 0 {
		t.Fatalf("after expiry: %+v", rep)
	}
	if !strings.Contains(line, `"failed":6`) {
		t.Fatalf("driver line %s", line)
	}
}

func TestParseDaemonLines(t *testing.T) {
	c, err := parseRead("OK AAEC 2026-09-27T16:05:00.5Z age=12.5ms delta=320ms mode=normal theta=0s depth=1")
	if err != nil || c.age != 12500*time.Microsecond || c.delta != 320*time.Millisecond || c.th != 0 || string(c.value) != "\x00\x01\x02" {
		t.Fatalf("parseRead = %+v, %v", c, err)
	}
	if _, err := parseRead("ERR not found"); err == nil {
		t.Fatal("an ERR reply parsed as a certificate")
	}
	if got := statusField("OK role=primary objects=8 epoch=2", "objects"); got != "8" {
		t.Fatalf("statusField = %q", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest holds BENCHMARK.json to the catalogue and the catalogue to
// the acceptance driver's limits.
func TestManifest(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(file)) != manifestJSON() {
		t.Error("BENCHMARK.json differs from `go run ./benchmark manifest`; regenerate it")
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(file, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := m[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(m) != 6 || len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json has %d keys and %d bytes", len(m), len(file))
	}

	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(driverWorkloads()); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	// Every gated cell a workload cannot measure is named in its why.
	for _, w := range driverWorkloads() {
		for _, d := range endToEnd {
			if !d.nativeOn(w.Name) && !strings.Contains(w.Why, d.Name) {
				t.Errorf("workload %s: why does not name its stand-in %s", w.Name, d.Name)
			}
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, d := range endToEnd {
		check("metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		check("metric", d.Name)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// TestDriverLineCarriesExactlyTheCatalogue checks the emitted metric names
// against BENCHMARK.json's two lists.
func TestDriverLineCarriesExactlyTheCatalogue(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := newReport("steady", 1, 1, traced)
		rep.set("write_p50_us", 1.5, 10)
		rep.set("wire.encode_update_64_ns", 30, 10)
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(rep.driverLine()), &line); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics emitted, catalogue has %d", traced, len(line.Metrics), len(want))
		}
		for _, d := range want {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced=%v: %s emitted as %+v (present %v)", traced, d.Name, m, ok)
			}
		}
		if line.Attempted < 1 || !line.Correct {
			t.Errorf("attempted %d correct %v", line.Attempted, line.Correct)
		}
	}
}

// TestReadmeGlossary keeps the README's glossary complete.
func TestReadmeGlossary(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	for _, w := range workloads {
		if !strings.Contains(text, "`"+w.Name+"`") {
			t.Errorf("README.md does not explain workload %s", w.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(text, d.Name) {
			t.Errorf("README.md does not mention metric %s", d.Name)
		}
	}
}

// TestSteadySmoke runs a one-second steady on a live pair and asserts
// correctness only: every object admitted, versions monotone, the backup
// converged, every metric a number. It never looks at a timing.
func TestSteadySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live loopback pair")
	}
	rep, finished := runWorkload("steady", 7, 1, false)
	if !finished || !rep.Correct {
		t.Fatalf("steady is not correct: %v", rep.Problems)
	}
	if rep.Attempted != 200 || rep.Failed != 0 {
		t.Fatalf("attempted %d failed %d", rep.Attempted, rep.Failed)
	}
	for _, d := range endToEnd {
		if m, ok := rep.Metrics[d.Name]; !ok || math.IsNaN(m.Value) || m.Value < 0 {
			t.Errorf("%s = %+v (present %v)", d.Name, m, ok)
		}
	}
}
