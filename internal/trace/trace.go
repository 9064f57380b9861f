// Package trace collects the performability metrics of the paper's
// evaluation (Section 5): client response time, average maximum
// primary-backup distance, and duration of backup inconsistency. It also
// provides the Series/Figure types the benchmark harness uses to print
// each regenerated figure as a data table.
package trace

import (
	"fmt"
	"sort"
	"time"
)

// DurationStats accumulates duration samples and answers summary queries.
// The zero value is ready to use.
type DurationStats struct {
	samples []time.Duration
	sorted  bool
	total   time.Duration
}

// Add records one sample.
func (s *DurationStats) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.total += d
	s.sorted = false
}

// Count reports the number of samples.
func (s *DurationStats) Count() int { return len(s.samples) }

// Mean reports the average sample, or 0 with no samples.
func (s *DurationStats) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.total / time.Duration(len(s.samples))
}

// Max reports the largest sample, or 0 with no samples.
func (s *DurationStats) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[len(s.samples)-1]
}

// Percentile reports the p-th percentile (0 < p ≤ 100) using
// nearest-rank, or 0 with no samples.
func (s *DurationStats) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[len(s.samples)-1]
	}
	rank := int(p/100*float64(len(s.samples))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s.samples) {
		rank = len(s.samples) - 1
	}
	return s.samples[rank]
}

func (s *DurationStats) sort() {
	if s.sorted {
		return
	}
	sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
	s.sorted = true
}

// String renders a one-line summary.
func (s *DurationStats) String() string {
	return fmt.Sprintf("n=%d mean=%v p99=%v max=%v",
		s.Count(), s.Mean(), s.Percentile(99), s.Max())
}

// DistanceTracker measures the paper's "average maximum primary-backup
// distance": for each object it tracks the largest observed distance
// (how far the backup's applied version lags the version the primary
// holds), and AvgMax averages those per-object maxima.
type DistanceTracker struct {
	maxByObject map[uint32]time.Duration
}

// NewDistanceTracker returns an empty tracker.
func NewDistanceTracker() *DistanceTracker {
	return &DistanceTracker{maxByObject: make(map[uint32]time.Duration)}
}

// Observe records a distance sample for an object.
func (d *DistanceTracker) Observe(object uint32, dist time.Duration) {
	if dist < 0 {
		dist = 0
	}
	if dist > d.maxByObject[object] {
		d.maxByObject[object] = dist
	} else if _, ok := d.maxByObject[object]; !ok {
		d.maxByObject[object] = dist
	}
}

// AvgMax reports the average of the per-object maximum distances, the
// metric of Figures 8-10.
func (d *DistanceTracker) AvgMax() time.Duration {
	if len(d.maxByObject) == 0 {
		return 0
	}
	var sum time.Duration
	for _, m := range d.maxByObject {
		sum += m
	}
	return sum / time.Duration(len(d.maxByObject))
}

// Series is one labelled curve of a figure: Y values sampled at the
// figure's shared X points.
type Series struct {
	// Label names the curve (e.g. "window=60ms").
	Label string
	// Y holds one value per figure X point.
	Y []float64
}

// Figure is a regenerated paper figure as a data table.
type Figure struct {
	// Name is the paper's figure identifier (e.g. "Figure 8").
	Name string
	// Title describes the plot.
	Title string
	// XLabel and YLabel name the axes.
	XLabel, YLabel string
	// X holds the shared sample points.
	X []float64
	// Series holds one curve per parameter setting.
	Series []Series
}

// Render prints the figure as an aligned text table: one row per X point,
// one column per series.
func (f *Figure) Render() string {
	out := fmt.Sprintf("%s: %s\n", f.Name, f.Title)
	header := fmt.Sprintf("%16s", f.XLabel)
	for _, s := range f.Series {
		header += fmt.Sprintf("  %18s", s.Label)
	}
	out += header + "\n"
	for i, x := range f.X {
		row := fmt.Sprintf("%16.4g", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				row += fmt.Sprintf("  %18.4f", s.Y[i])
			} else {
				row += fmt.Sprintf("  %18s", "-")
			}
		}
		out += row + "\n"
	}
	out += fmt.Sprintf("(y axis: %s)\n", f.YLabel)
	return out
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	out := f.XLabel
	for _, s := range f.Series {
		out += "," + s.Label
	}
	out += "\n"
	for i, x := range f.X {
		out += fmt.Sprintf("%g", x)
		for _, s := range f.Series {
			if i < len(s.Y) {
				out += fmt.Sprintf(",%g", s.Y[i])
			} else {
				out += ","
			}
		}
		out += "\n"
	}
	return out
}
