package trace

import (
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestDurationStatsBasics(t *testing.T) {
	var s DurationStats
	if s.Count() != 0 || s.Mean() != 0 || s.Percentile(0) != 0 || s.Max() != 0 {
		t.Fatal("zero-value stats not all zero")
	}
	for _, d := range []time.Duration{ms(30), ms(10), ms(20)} {
		s.Add(d)
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != ms(20) {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Percentile(0) != ms(10) || s.Max() != ms(30) {
		t.Fatalf("Min/Max = %v/%v", s.Percentile(0), s.Max())
	}
	if s.total != ms(60) {
		t.Fatalf("total = %v", s.total)
	}
}

func TestDurationStatsPercentile(t *testing.T) {
	var s DurationStats
	for i := 1; i <= 100; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	if p := s.Percentile(50); p != ms(50) {
		t.Fatalf("P50 = %v, want 50ms", p)
	}
	if p := s.Percentile(99); p != ms(99) {
		t.Fatalf("P99 = %v, want 99ms", p)
	}
	if p := s.Percentile(0); p != ms(1) {
		t.Fatalf("P0 = %v, want 1ms", p)
	}
	if p := s.Percentile(100); p != ms(100) {
		t.Fatalf("P100 = %v, want 100ms", p)
	}
}

func TestDurationStatsAddAfterQuery(t *testing.T) {
	var s DurationStats
	s.Add(ms(10))
	_ = s.Max()
	s.Add(ms(5))
	if s.Percentile(0) != ms(5) {
		t.Fatalf("min after re-add = %v, want 5ms", s.Percentile(0))
	}
}

func TestDistanceTracker(t *testing.T) {
	d := NewDistanceTracker()
	if d.AvgMax() != 0 || len(d.maxByObject) != 0 {
		t.Fatal("empty tracker not zero")
	}
	d.Observe(1, ms(10))
	d.Observe(1, ms(30))
	d.Observe(1, ms(20)) // not a new max
	d.Observe(2, ms(50))
	d.Observe(3, -ms(5)) // clamped to 0
	if d.maxByObject[1] != ms(30) {
		t.Fatalf("max of object 1 = %v", d.maxByObject[1])
	}
	if len(d.maxByObject) != 3 {
		t.Fatalf("objects = %d", len(d.maxByObject))
	}
	// AvgMax = (30+50+0)/3 ≈ 26.67ms
	want := (ms(30) + ms(50)) / 3
	if d.AvgMax() != want {
		t.Fatalf("AvgMax = %v, want %v", d.AvgMax(), want)
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{
		Name:   "Figure 8",
		Title:  "avg max distance vs loss",
		XLabel: "loss",
		YLabel: "distance (ms)",
		X:      []float64{0, 0.1},
		Series: []Series{
			{Label: "rate=10/s", Y: []float64{1.5, 700}},
			{Label: "rate=20/s", Y: []float64{2.5}}, // short series
		},
	}
	out := f.Render()
	for _, want := range []string{"Figure 8", "loss", "rate=10/s", "700.0000", "-"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{
		XLabel: "x",
		X:      []float64{1, 2},
		Series: []Series{{Label: "a", Y: []float64{10, 20}}},
	}
	got := f.CSV()
	want := "x,a\n1,10\n2,20\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}
