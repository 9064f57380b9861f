package main

import (
	"strings"
	"testing"
)

func TestRunRejectsBadFigure(t *testing.T) {
	err := run([]string{"-figure", "99"})
	if err == nil || !strings.Contains(err.Error(), "no such figure") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-duration", "bogus"}); err == nil {
		t.Fatal("bad duration accepted")
	}
}

func TestClocksyncSweepSeparatesArms(t *testing.T) {
	// The sweep's own gates (zero corrected violations, uncorrected
	// violations at the top skew, monotone admission) run inside
	// clocksyncSweep; this pins the shape of what it returns.
	points, err := clocksyncSweep(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(clocksyncSkews) {
		t.Fatalf("got %d points, want %d", len(points), len(clocksyncSkews))
	}
	first, last := points[0], points[len(points)-1]
	if first.Admitted != first.Offered {
		t.Fatalf("zero margin admitted %d/%d, want the full ladder", first.Admitted, first.Offered)
	}
	if last.Admitted >= first.Admitted {
		t.Fatalf("max margin admitted %d, want fewer than the zero-margin %d", last.Admitted, first.Admitted)
	}
	if last.RawViolationMs <= 0 {
		t.Fatalf("uncorrected arm at max skew shows no violation; the hazard is gone")
	}
	for _, p := range points {
		if p.SyncViolationMs != 0 {
			t.Fatalf("corrected arm charged %.3fms at %gms skew", p.SyncViolationMs, p.SkewMs)
		}
	}
}

func TestRunSingleFigureSmokes(t *testing.T) {
	// A tiny virtual interval keeps this fast; output goes to stdout.
	if err := run([]string{"-figure", "13", "-duration", "500ms"}); err != nil {
		t.Fatalf("figure 13: %v", err)
	}
	if err := run([]string{"-figure", "8", "-duration", "250ms", "-csv"}); err != nil {
		t.Fatalf("figure 8 csv: %v", err)
	}
}
