package main

import (
	"fmt"

	"rtpb/internal/chaos"
)

// rejoinPoint is one crash-failover-rejoin run at one loss rate: a full
// repair cycle (crash, promotion, directory-driven rejoin, chunked
// catch-up) or one arm of the disk-vs-network transfer matrix.
type rejoinPoint struct {
	// Name labels the configuration.
	Name string `json:"name"`
	// Loss is the message-loss probability on every link.
	Loss float64 `json:"loss"`
	// CatchUpMs is the time from the rejoin fault's injection to the
	// rejoined replica's final object passing catch-up.
	CatchUpMs float64 `json:"catch_up_ms"`
	// Promotions and FinalEpoch record the failover the rejoin followed.
	Promotions int    `json:"promotions"`
	FinalEpoch uint32 `json:"final_epoch"`
	// Violations counts invariant failures (0 in a healthy run).
	Violations int `json:"violations"`
	// Mode marks the transfer-matrix entries ("disk" or "network");
	// empty for the repair-cycle points.
	Mode string `json:"mode,omitempty"`
	// TransferMs is the matrix's measured quantity: the anti-entropy
	// window from JoinAccept to the final state chunk. Directory polling
	// and failover latency — identical across modes — are excluded.
	TransferMs float64 `json:"transfer_ms,omitempty"`
	// SpeedupVsNetwork is, on disk-mode entries, the network-mode
	// transfer time at the same loss divided by this entry's; the repo
	// gates it at 10x for loss >= 10%.
	SpeedupVsNetwork float64 `json:"speedup_vs_network,omitempty"`
	// RestoredObjects counts values the disk-mode restart seeded from
	// its durable store before joining.
	RestoredObjects int `json:"restored_objects,omitempty"`
}

// rejoinLosses is the disk-vs-network sweep's loss axis.
var rejoinLosses = []float64{0, 0.05, 0.10, 0.20}

// rejoinSpeedupGate is the floor on disk-mode speedup at or above
// rejoinGateLoss: a restart that replays its local durable tail must
// beat a full over-the-wire anti-entropy transfer by at least this
// factor once the link is meaningfully lossy, or disk-fast rejoin has
// regressed into re-streaming state it already holds.
const (
	rejoinSpeedupGate = 10.0
	rejoinGateLoss    = 0.10
)

// rejoinSweep measures rejoin on the virtual clock in two parts. First
// the full repair cycle: the crash-failover-rejoin scenario at each loss
// rate, timing how long the rejoined replica takes to catch up. Then the
// disk-vs-network transfer matrix: the chaos.RejoinSweep scenario (wide
// mostly-quiescent state, crashed primary returning to a promoted
// successor) in both modes at each loss rate. Disk-mode entries carry the
// speedup over the network entry at the same loss, and the sweep fails if
// the gate is missed. A transfer-matrix violation also fails the sweep: a
// transfer time from a run that broke an invariant is not a measurement.
func rejoinSweep(seed int64) ([]rejoinPoint, error) {
	var points []rejoinPoint
	for _, cfg := range []struct {
		name string
		loss float64
	}{
		{"rejoin-clean", 0},
		{"rejoin-loss-10", 0.10},
		{"rejoin-loss-25", 0.25},
	} {
		sc := chaos.RejoinBench(cfg.loss)
		sc.Seed = seed
		res, err := chaos.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		points = append(points, rejoinPoint{
			Name:       cfg.name,
			Loss:       cfg.loss,
			CatchUpMs:  msOf(res.RejoinCatchUp),
			Promotions: res.Promotions,
			FinalEpoch: res.FinalEpoch,
			Violations: len(res.Violations),
		})
	}
	networkMs := make(map[float64]float64)
	for _, loss := range rejoinLosses {
		for _, disk := range []bool{false, true} {
			sc := chaos.RejoinSweep(loss, disk)
			sc.Seed = seed
			res, err := chaos.Run(sc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			if len(res.Violations) > 0 {
				return nil, fmt.Errorf("%s seed %d: %d violation(s): %s",
					sc.Name, sc.Seed, len(res.Violations), res.Violations[0])
			}
			mode := "network"
			if disk {
				mode = "disk"
			}
			p := rejoinPoint{
				Name:            res.Scenario,
				Loss:            loss,
				Mode:            mode,
				TransferMs:      float64(res.RejoinTransfer.Microseconds()) / 1000,
				CatchUpMs:       float64(res.RejoinCatchUp.Microseconds()) / 1000,
				Promotions:      res.Promotions,
				FinalEpoch:      res.FinalEpoch,
				Violations:      len(res.Violations),
				RestoredObjects: res.RestoredObjects,
			}
			if disk {
				if net := networkMs[loss]; net > 0 && p.TransferMs > 0 {
					p.SpeedupVsNetwork = net / p.TransferMs
				}
				if loss >= rejoinGateLoss && p.SpeedupVsNetwork < rejoinSpeedupGate {
					return nil, fmt.Errorf(
						"disk transfer %.1fms is only %.1fx faster than network %.1fms at %.0f%% loss (gate: %.0fx)",
						p.TransferMs, p.SpeedupVsNetwork, networkMs[loss], loss*100, rejoinSpeedupGate)
				}
			} else {
				networkMs[loss] = p.TransferMs
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// cells prints the transfer matrix; the repair-cycle points are in the
// report only.
func (p rejoinPoint) cells(csv bool) []string {
	switch {
	case p.Mode == "":
		return nil
	case csv:
		return []string{fmt.Sprintf("%.2f", p.Loss), p.Mode, fmt.Sprintf("%.3f", p.TransferMs),
			fmt.Sprintf("%.1f", p.CatchUpMs), fmt.Sprint(p.RestoredObjects), fmt.Sprintf("%.1f", p.SpeedupVsNetwork)}
	}
	speedup := "-"
	if p.SpeedupVsNetwork > 0 {
		speedup = fmt.Sprintf("%.1fx", p.SpeedupVsNetwork)
	}
	return []string{fmt.Sprintf("%.2f", p.Loss), p.Mode, fmt.Sprintf("%.3fms", p.TransferMs),
		fmt.Sprintf("%.1fms", p.CatchUpMs), fmt.Sprint(p.RestoredObjects), speedup}
}
