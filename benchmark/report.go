package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// measurement is one reported number with the sample count behind it.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples a percentile or rate rests on; 0 for a
	// single reading.
	N int `json:"n,omitempty"`
	// Note qualifies the value, e.g. "p95" when too few samples support
	// the p99 the name asks for.
	Note string `json:"note,omitempty"`
}

// report is the outcome of one workload run.
type report struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]measurement `json:"metrics"`
	TraceFile string                 `json:"trace_file,omitempty"`

	// mu guards every field above while the workload runs: the watchdog
	// reads a report whose workload may still be writing to it. Once
	// frozen, writes are dropped, so the goroutine that froze it may read
	// the fields without the lock.
	mu     sync.Mutex
	frozen bool
	// issued and completed count the writes of a live run as they happen,
	// so the watchdog can tell how many were outstanding when it fired.
	issued, completed atomic.Int64
}

func newReport(workload string, seed int64, seconds int, traced bool) *report {
	return &report{Workload: workload, Seed: seed, Seconds: seconds, Traced: traced,
		Correct: true, Metrics: make(map[string]measurement)}
}

// expire is the watchdog's verdict: whatever was outstanding counts as
// failed, and the report stops changing.
func (r *report) expire(limit time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.problemLocked(fmt.Sprintf("deadline of %v exceeded; outstanding ops count as failed", limit))
	if issued := int(r.issued.Load()); issued > 0 {
		r.Attempted, r.Failed = issued, issued-int(r.completed.Load())
	} else {
		r.Attempted = max(r.Attempted, 1)
		r.Failed = r.Attempted
	}
	r.frozen = true
}

// ops records how many operations the measured window attempted and how
// many of them failed.
func (r *report) ops(attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.frozen {
		r.Attempted, r.Failed = attempted, failed
	}
}

func (r *report) traceFile(path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.frozen {
		r.TraceFile = path
	}
}

func (r *report) value(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Metrics[name].Value
}

// set records a metric; the unit comes from the catalogue so a name can
// never be reported in two units.
func (r *report) set(name string, value float64, n int) {
	def, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen {
		return
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.problemLocked("metric " + name + " is not a number")
		value = 0
	}
	r.Metrics[name] = measurement{Value: value, Unit: def.Unit, N: n}
}

// annotate qualifies a metric already set.
func (r *report) annotate(name, note string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.Metrics[name]; ok && !r.frozen {
		m.Note = note
		r.Metrics[name] = m
	}
}

// standIn fills a gated cell this workload cannot measure with another
// number of the same run, so the driver's rectangular table is complete.
// It is no measurement of the metric it is filed under.
func (r *report) standIn(name string, value float64, of string) {
	r.set(name, value, 0)
	r.annotate(name, "stand-in: "+of)
}

// setTail records a percentile metric, noting the percentile actually
// used when the sample is too small for the one its name promises.
func (r *report) setTail(name string, s samples, want float64) {
	v, used := s.tail(want)
	r.set(name, v, len(s))
	if used != want {
		r.annotate(name, fmt.Sprintf("p%g", used*100))
	}
}

// maxProblems caps the list: one broken stream can fail thousands of ops.
const maxProblems = 12

func (r *report) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.frozen {
		r.problemLocked(fmt.Sprintf(format, args...))
	}
}

func (r *report) problemLocked(msg string) {
	r.Correct = false
	switch {
	case len(r.Problems) < maxProblems:
		r.Problems = append(r.Problems, msg)
	case len(r.Problems) == maxProblems:
		r.Problems = append(r.Problems, "further problems not listed")
	}
}

func (r *report) note(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.frozen {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// merge copies another report's metrics and verdicts into r (used to fold
// the layer suite and the traced run into one --trace 1 result). Both runs
// are over: nothing writes to either report any more.
func (r *report) merge(o *report) {
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	if !o.Correct {
		r.Correct = false
	}
	r.Problems = append(r.Problems, o.Problems...)
	r.Notes = append(r.Notes, o.Notes...)
}

// driverLine renders the one-line result the acceptance driver parses:
// every end-to-end metric for an untraced run, every per-layer metric for
// a traced one, nothing else.
func (r *report) driverLine() string {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, make(map[string]mv, len(defs))}
	for _, d := range defs {
		out.Metrics[d.Name] = mv{r.Metrics[d.Name].Value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// print writes the human table: every metric the run produced, by name,
// with unit and sample count.
func (r *report) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  seconds=%d  %s  correct=%v  attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Seconds, mode, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := isEndToEnd(names[i]), isEndToEnd(names[j])
		if ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, k := range names {
		m := r.Metrics[k]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  n=%d", m.N)
		}
		if m.Note != "" {
			extra += "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-34s %14s %-6s%s\n", k, formatValue(m.Value), m.Unit, extra)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.TraceFile)
	}
}

func isEndToEnd(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return true
		}
	}
	return false
}

func formatValue(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}
