package main

import (
	"fmt"
	"time"

	"rtpb/internal/chaos"
	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/temporal"
)

// clocksyncSkews is the sweep's skew axis: the backup boots with its
// wall clock displaced by this much from the primary's.
var clocksyncSkews = []time.Duration{
	0,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
}

// clocksyncRawViolationSkew is the discrimination gate: at or above this
// skew the uncorrected (sync-off) arm must show provable bound
// violations on the fast object — otherwise the sweep has stopped
// exercising the hazard the correction exists for — while the corrected
// arm must stay at zero at every point ("zero silent violations").
const clocksyncRawViolationSkew = 50 * time.Millisecond

// clocksyncPoint is one row of the skew-tolerance sweep.
type clocksyncPoint struct {
	// SkewMs is the injected backup clock offset.
	SkewMs float64 `json:"skew_ms"`
	// Admitted/Offered chart the admission-control axis: how much of a
	// fixed δB ladder survives when SkewMargin reserves this much skew.
	Admitted int `json:"admitted"`
	Offered  int `json:"offered"`
	// SyncViolationMs is the worst per-object provable violation time
	// with clock-sync correction on (gated at zero at every skew).
	SyncViolationMs float64 `json:"sync_violation_ms"`
	// SyncUnverifiableMs is the corrected arm's gray-band time: staleness
	// within θ of the bound, where the monitor suspends judgement.
	SyncUnverifiableMs float64 `json:"sync_unverifiable_ms"`
	// SyncThetaMs is the estimator's error bound θ at the end of the run.
	SyncThetaMs float64 `json:"sync_theta_ms"`
	// RawViolationMs is the same scenario without correction: the skew
	// lands in the staleness measurement and the fast object's bound is
	// provably (and correctly) charged once the skew eats its slack.
	RawViolationMs float64 `json:"raw_violation_ms"`
}

// clocksyncObjects is the scenario workload: the standard object
// (δB=250ms, slack the sweep's skews never threaten) plus a fast tight
// one (δB=60ms) whose slack a 50ms skew provably consumes — the pair
// that separates "skew corrected" from "skew charged to the protocol".
func clocksyncObjects() []core.ObjectSpec {
	fast := core.ObjectSpec{
		Name:         "gyro",
		Size:         64,
		UpdatePeriod: 10 * time.Millisecond,
		Constraint: temporal.ExternalConstraint{
			DeltaP: 20 * time.Millisecond,
			DeltaB: 60 * time.Millisecond,
		},
	}
	return []core.ObjectSpec{chaos.StandardObject(), fast}
}

// clocksyncScenario builds one sweep arm: the backup boots with its
// clock off by skew (the fault fires at t=0, modelling boot-time
// miscalibration, so the very first sync probe already sees it), and the
// run either corrects stamps through the estimated offset (sync) or
// verifies raw stamps (raw). The sync arm carries the full invariant
// set — bounds held, estimator honest against ground truth — while the
// raw arm only keeps the liveness checks, because charging the skew to
// the protocol is exactly the outcome it measures.
func clocksyncScenario(skew time.Duration, sync bool) chaos.Scenario {
	mode := "raw"
	if sync {
		mode = "sync"
	}
	sc := chaos.Scenario{
		Name: fmt.Sprintf("clocksync-%s-skew-%dms", mode, skew/time.Millisecond),
		Description: fmt.Sprintf(
			"backup boots %v off the primary's clock, correction %s", skew, mode),
		Duration:  3 * time.Second,
		ClockSync: sync,
		Objects:   clocksyncObjects(),
		Detector:  failover.DetectorConfig{Interval: 50 * time.Millisecond, Timeout: 30 * time.Millisecond, MaxMisses: 10},
		Invariants: []chaos.Checker{
			chaos.Converged{}, chaos.NoSplitBrain{},
			chaos.Promotions{Want: 0}, chaos.EpochIs{Want: 1},
			chaos.Progress{MinApplies: 20},
		},
	}
	if skew > 0 {
		sc.Events = []chaos.FaultEvent{
			{At: 0, Fault: chaos.ClockSkew{Node: chaos.BackupNode, Offset: skew}},
		}
	}
	if sync {
		sc.Invariants = append(sc.Invariants,
			chaos.BoundHeld{}, chaos.HonestBounds{Site: chaos.BackupNode})
	}
	return sc
}

// clocksyncLadder is the admission axis' offered set: twelve objects
// whose backup slacks δB−δP step from 10ms to 120ms over a fixed δP, so
// each SkewMargin increment visibly prices the tightest rungs out
// (admission rejects any object whose slack the reserved skew plus ℓ
// consumes).
func clocksyncLadder() []core.ObjectSpec {
	specs := make([]core.ObjectSpec, 0, 12)
	for k := 0; k < 12; k++ {
		specs = append(specs, core.ObjectSpec{
			Name:         fmt.Sprintf("rung-%02d", k),
			Size:         64,
			UpdatePeriod: 40 * time.Millisecond,
			Constraint: temporal.ExternalConstraint{
				DeltaP: 50 * time.Millisecond,
				DeltaB: 60*time.Millisecond + time.Duration(k)*10*time.Millisecond,
			},
		})
	}
	return specs
}

// clocksyncSweep measures skew tolerance on both axes at each point of
// the skew ladder: (a) admitted capacity when admission control reserves
// the skew as SkewMargin, and (b) the backup's verified-bound accounting
// for a cluster whose backup actually boots with that skew, with
// clock-sync correction on and off. The sweep fails if the corrected arm
// ever shows a provable violation, if the uncorrected arm fails to show
// one at the largest skew (the hazard must remain demonstrable), or if
// reserving more skew ever admits more objects.
func clocksyncSweep(seed int64) ([]clocksyncPoint, error) {
	ladder := clocksyncLadder()
	points := make([]clocksyncPoint, 0, len(clocksyncSkews))
	for _, skew := range clocksyncSkews {
		p := clocksyncPoint{
			SkewMs:  float64(skew.Microseconds()) / 1000,
			Offered: len(ladder),
		}
		for _, d := range core.PlanAdmission(core.Config{
			Ell:        5 * time.Millisecond,
			SkewMargin: skew,
		}, ladder) {
			if d.Accepted {
				p.Admitted++
			}
		}
		for _, sync := range []bool{true, false} {
			sc := clocksyncScenario(skew, sync)
			sc.Seed = seed
			res, err := chaos.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			if len(res.Violations) > 0 {
				return nil, fmt.Errorf("%s seed %d: %d violation(s): %s",
					sc.Name, sc.Seed, len(res.Violations), res.Violations[0])
			}
			ms := float64(res.BoundViolation.Microseconds()) / 1000
			if sync {
				p.SyncViolationMs = ms
				p.SyncUnverifiableMs = float64(res.UnverifiableTime.Microseconds()) / 1000
				p.SyncThetaMs = float64(res.EndTheta.Microseconds()) / 1000
			} else {
				p.RawViolationMs = ms
			}
		}
		if p.SyncViolationMs > 0 {
			return nil, fmt.Errorf(
				"corrected arm charged %.1fms of violation at %v skew; offset correction is no longer absorbing the skew",
				p.SyncViolationMs, skew)
		}
		if skew >= clocksyncRawViolationSkew && p.RawViolationMs == 0 {
			return nil, fmt.Errorf(
				"uncorrected arm shows no violation at %v skew; the sweep no longer demonstrates the hazard",
				skew)
		}
		if n := len(points); n > 0 && p.Admitted > points[n-1].Admitted {
			return nil, fmt.Errorf(
				"admitted capacity rose from %d to %d as SkewMargin grew to %v",
				points[n-1].Admitted, p.Admitted, skew)
		}
		points = append(points, p)
	}
	if points[0].Admitted != len(ladder) {
		return nil, fmt.Errorf("only %d/%d ladder objects admitted at zero margin",
			points[0].Admitted, len(ladder))
	}
	return points, nil
}

func (p clocksyncPoint) cells(csv bool) []string {
	if csv {
		return []string{fmt.Sprintf("%.0f", p.SkewMs), fmt.Sprint(p.Admitted), fmt.Sprint(p.Offered),
			fmt.Sprintf("%.3f", p.SyncViolationMs), fmt.Sprintf("%.3f", p.SyncUnverifiableMs),
			fmt.Sprintf("%.3f", p.SyncThetaMs), fmt.Sprintf("%.3f", p.RawViolationMs)}
	}
	return []string{fmt.Sprintf("%.0fms", p.SkewMs), fmt.Sprintf("%d/%d", p.Admitted, p.Offered),
		fmt.Sprintf("%.3fms", p.SyncViolationMs), fmt.Sprintf("%.1fms", p.SyncUnverifiableMs),
		fmt.Sprintf("%.2fms", p.SyncThetaMs), fmt.Sprintf("%.1fms", p.RawViolationMs)}
}
