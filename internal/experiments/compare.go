package experiments

import (
	"fmt"
	"time"

	"rtpb/internal/active"
	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/topo"
	"rtpb/internal/trace"
	"rtpb/internal/xkernel"
)

// CompareResult contrasts passive (RTPB) and active (sequencer-based
// state machine) replication under identical workload and link
// conditions — the quantitative version of the paper's related-work
// argument that active replication "tends to have more overhead in
// responding to client requests".
type CompareResult struct {
	// PassiveResponse and ActiveResponse are the client-visible write
	// response-time distributions.
	PassiveResponse trace.DurationStats
	ActiveResponse  trace.DurationStats
	// ActiveCommits counts fully acknowledged active writes.
	ActiveCommits int
}

// CompareActivePassive runs the same single-object periodic write
// workload against an RTPB pair and against an active sequencer+member
// pair on identically parameterized (separate) fabrics.
func CompareActivePassive(seed int64, loss float64, duration time.Duration) (*CompareResult, error) {
	out := &CompareResult{}

	// Passive: reuse the standard harness with one object.
	pres, err := Run(Params{
		Seed:             seed,
		Delay:            linkDelay,
		Jitter:           linkJitter,
		Loss:             loss,
		Ell:              ell,
		Objects:          1,
		ObjectSize:       64,
		ClientPeriod:     40 * time.Millisecond,
		DeltaP:           50 * time.Millisecond,
		Window:           100 * time.Millisecond,
		Scheduling:       core.ScheduleNormal,
		AdmissionControl: true,
		Duration:         duration,
	})
	if err != nil {
		return nil, err
	}
	out.PassiveResponse = pres.Response

	// Active: a sequencer with one member on the same link parameters.
	f, hs, err := topo.Build(seed, netsim.LinkParams{Delay: linkDelay, Jitter: linkJitter, LossProb: loss}, "seq", "member")
	if err != nil {
		return nil, err
	}
	clk := f.Clock
	seq, err := active.NewSequencer(active.Config{
		Clock:   clk,
		Port:    hs[0].Port,
		Members: []xkernel.Addr{"member:7100"},
	})
	if err != nil {
		return nil, err
	}
	if _, err := active.NewMember(active.Config{
		Clock:     clk,
		Port:      hs[1].Port,
		Sequencer: "seq:7100",
	}); err != nil {
		return nil, err
	}
	if _, err := seq.Register("obj"); err != nil {
		return nil, err
	}
	writer := clock.NewPeriodic(clk, 0, 40*time.Millisecond, func() {
		seq.ClientWrite("obj", []byte("sensor-reading-64-bytes-of-data-padding-padding-padding-pad...."),
			func(lat time.Duration, err error) {
				if err == nil {
					out.ActiveResponse.Add(lat)
					out.ActiveCommits++
				}
			})
	})
	clk.RunFor(duration)
	writer.Stop()
	clk.RunFor(time.Second) // drain in-flight commits
	seq.Stop()
	return out, nil
}

// CompareFigure sweeps loss probability and reports the mean client
// response time of both schemes — the crossover-free separation the
// paper's design argument predicts.
func CompareFigure(seed int64, duration time.Duration) (*trace.Figure, error) {
	fig := &trace.Figure{
		Name:   "Active vs passive",
		Title:  "client response time: RTPB (passive) vs atomic broadcast (active)",
		XLabel: "loss probability",
		YLabel: "mean response time (ms)",
	}
	passive := trace.Series{Label: "RTPB (passive)"}
	act := trace.Series{Label: "active (atomic)"}
	for _, loss := range []float64{0, 0.05, 0.1, 0.2} {
		r, err := CompareActivePassive(seed, loss, duration)
		if err != nil {
			return nil, err
		}
		if r.ActiveCommits == 0 {
			return nil, fmt.Errorf("experiments: no active commits at loss %.2f", loss)
		}
		fig.X = append(fig.X, loss)
		passive.Y = append(passive.Y, msf(r.PassiveResponse.Mean()))
		act.Y = append(act.Y, msf(r.ActiveResponse.Mean()))
	}
	fig.Series = []trace.Series{passive, act}
	return fig, nil
}
