package experiments

import (
	"fmt"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/sched"
	"rtpb/internal/trace"
)

// PhaseVarianceResult reports the phase variance observed on the *live*
// protocol: the update-transmission instants of each object at the
// primary are exactly the invocation completions I_k of the paper's
// Definition 1, so their jitter is the phase variance v'_i that
// Theorems 4-6 charge against the backup's consistency budget.
type PhaseVarianceResult struct {
	// Objects is the number of admitted objects measured.
	Objects int
	// UpdatePeriod is the common admitted period r.
	UpdatePeriod time.Duration
	// MaxMeasured is the largest phase variance across objects.
	MaxMeasured time.Duration
	// MeanMeasured is the average across objects.
	MeanMeasured time.Duration
	// UniversalBound is p − e (Inequality 2.1) for the update tasks.
	UniversalBound time.Duration
}

// MeasurePhaseVariance runs a cluster and measures the live phase
// variance of every object's update-transmission task.
func MeasurePhaseVariance(p Params) (*PhaseVarianceResult, error) {
	sendTimes := make(map[uint32][]time.Duration)
	base := time.Time{}

	res, err := runHooked(p, func(id uint32, _ string, _ uint64, _ time.Time, at time.Time) {
		if base.IsZero() {
			base = at
		}
		sendTimes[id] = append(sendTimes[id], at.Sub(base))
	})
	if err != nil {
		return nil, err
	}
	if res.Admitted == 0 {
		return nil, fmt.Errorf("experiments: nothing admitted")
	}

	out := &PhaseVarianceResult{Objects: res.Admitted, UpdatePeriod: res.UpdatePeriod}
	costs := core.DefaultCosts()
	sendCost := costs.UpdateSend + time.Duration(p.ObjectSize)*costs.PerByte
	out.UniversalBound = out.UpdatePeriod - sendCost

	var sum time.Duration
	counted := 0
	for _, times := range sendTimes {
		v, ok := sched.MeasuredPhaseVariance(times, out.UpdatePeriod, 1)
		if !ok {
			continue
		}
		counted++
		sum += v
		if v > out.MaxMeasured {
			out.MaxMeasured = v
		}
	}
	if counted > 0 {
		out.MeanMeasured = sum / time.Duration(counted)
	}
	return out, nil
}

// PhaseVarianceFigure sweeps the offered load and reports the live
// measured phase variance against the universal bound p − e: the system-
// level counterpart of the Theorem 2 simulations.
func PhaseVarianceFigure(seed int64, duration time.Duration) (*trace.Figure, error) {
	fig := &trace.Figure{
		Name:   "Phase variance (live protocol)",
		Title:  "update-task phase variance vs offered load",
		XLabel: "objects admitted",
		YLabel: "phase variance (ms)",
	}
	measured := trace.Series{Label: "max measured v'"}
	bound := trace.Series{Label: "bound p−e"}
	for _, n := range []int{4, 8, 16, 24, 32} {
		r, err := MeasurePhaseVariance(Params{
			Seed:             seed + int64(n),
			Delay:            linkDelay,
			Jitter:           linkJitter,
			Ell:              ell,
			Objects:          n,
			ObjectSize:       64,
			ClientPeriod:     50 * time.Millisecond,
			DeltaP:           deltaP,
			Window:           50 * time.Millisecond,
			Scheduling:       core.ScheduleNormal,
			AdmissionControl: true,
			Duration:         duration,
		})
		if err != nil {
			return nil, err
		}
		fig.X = append(fig.X, float64(r.Objects))
		measured.Y = append(measured.Y, msf(r.MaxMeasured))
		bound.Y = append(bound.Y, msf(r.UniversalBound))
	}
	fig.Series = []trace.Series{measured, bound}
	return fig, nil
}
