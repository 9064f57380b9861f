package main

import (
	"fmt"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/experiments"
)

// benchPoint is one measured configuration in the JSON benchmark report.
type benchPoint struct {
	// Name labels the configuration.
	Name string `json:"name"`
	// Loss is the message-loss probability applied during measurement.
	Loss float64 `json:"loss"`
	// Objects and Admitted count the offered and admitted object set.
	Objects  int `json:"objects"`
	Admitted int `json:"admitted"`
	// Response statistics are client write response times in
	// milliseconds.
	ResponseMeanMs float64 `json:"response_mean_ms"`
	ResponseP99Ms  float64 `json:"response_p99_ms"`
	ResponseMaxMs  float64 `json:"response_max_ms"`
	// DistanceAvgMaxMs is the average maximum loss-induced
	// primary-backup distance (Figure 8's metric).
	DistanceAvgMaxMs float64 `json:"distance_avg_max_ms"`
	// StalenessAvgMaxMs is the average maximum raw backup staleness.
	StalenessAvgMaxMs float64 `json:"staleness_avg_max_ms"`
	// Sends, Applies, and Gaps count update transmissions, backup
	// applies, and detected sequence gaps during measurement.
	Sends   int `json:"sends"`
	Applies int `json:"applies"`
	Gaps    int `json:"gaps"`
	// RetransmitRequests and RetransmitSuppressed count gap-recovery
	// requests sent and those absorbed by the retransmission backoff.
	RetransmitRequests   int `json:"retransmit_requests"`
	RetransmitSuppressed int `json:"retransmit_suppressed"`
	// InconsistencyMs is the total time backup images spent beyond
	// their external bound, in milliseconds, over Excursions intervals.
	InconsistencyMs float64 `json:"inconsistency_ms"`
	Excursions      int     `json:"excursions"`
	// Utilization is the primary's planned CPU utilization.
	Utilization float64 `json:"utilization"`
}

// pointsSweep measures the resilience matrix: a fixed 16-object set over
// a sweep of loss rates.
func pointsSweep(seed int64, duration time.Duration) ([]benchPoint, error) {
	var points []benchPoint
	for _, cfg := range []struct {
		name string
		loss float64
	}{
		{"clean", 0},
		{"loss-10", 0.10},
		{"loss-25", 0.25},
	} {
		r, err := experiments.Run(experiments.Params{
			Seed:             seed,
			Delay:            2 * time.Millisecond,
			Jitter:           time.Millisecond,
			Loss:             cfg.loss,
			Ell:              5 * time.Millisecond,
			Objects:          16,
			ObjectSize:       64,
			ClientPeriod:     50 * time.Millisecond,
			DeltaP:           50 * time.Millisecond,
			Window:           50 * time.Millisecond,
			Scheduling:       core.ScheduleNormal,
			AdmissionControl: true,
			Duration:         duration,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.name, err)
		}
		points = append(points, benchPoint{
			Name:                 cfg.name,
			Loss:                 cfg.loss,
			Objects:              r.Offered,
			Admitted:             r.Admitted,
			ResponseMeanMs:       msOf(r.Response.Mean()),
			ResponseP99Ms:        msOf(r.Response.Percentile(99)),
			ResponseMaxMs:        msOf(r.Response.Max()),
			DistanceAvgMaxMs:     msOf(r.Distance.AvgMax()),
			StalenessAvgMaxMs:    msOf(r.StaleDistance.AvgMax()),
			Sends:                r.Sends,
			Applies:              r.Applies,
			Gaps:                 r.Gaps,
			RetransmitRequests:   r.RetransmitRequests,
			RetransmitSuppressed: r.RetransmitSuppressed,
			InconsistencyMs:      msOf(r.InconsistencyTotal),
			Excursions:           r.Excursions,
			Utilization:          r.Utilization,
		})
	}
	return points, nil
}

func (p benchPoint) cells(bool) []string {
	return []string{p.Name, fmt.Sprintf("%.2f", p.Loss), fmt.Sprint(p.Admitted),
		fmt.Sprintf("%.3f", p.ResponseMeanMs), fmt.Sprintf("%.3f", p.ResponseP99Ms),
		fmt.Sprintf("%.3f", p.DistanceAvgMaxMs), fmt.Sprint(p.Sends), fmt.Sprint(p.Gaps),
		fmt.Sprint(p.RetransmitRequests), fmt.Sprint(p.RetransmitSuppressed), fmt.Sprint(p.Excursions)}
}
