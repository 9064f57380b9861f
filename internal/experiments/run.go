// Package experiments regenerates the paper's evaluation (Section 5).
// Each FigureN function reproduces the corresponding figure as a data
// table: the same metric on the same axes with the same series, measured
// on the simulated RTPB deployment. Absolute values depend on the cost
// model and link parameters rather than the authors' 1998 testbed, but
// the qualitative shapes — what grows, what stays flat, where the
// crossovers are — are the reproduction targets (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/topo"
	"rtpb/internal/trace"
	"rtpb/internal/workload"
)

// Params configures one simulated RTPB run.
type Params struct {
	// Seed drives all randomness (loss, jitter).
	Seed int64
	// Delay and Jitter shape the primary↔backup link; Loss is the drop
	// probability applied after registration settles.
	Delay, Jitter time.Duration
	Loss          float64
	// Ell is the delay bound ℓ given to admission control.
	Ell time.Duration
	// Objects, ObjectSize, ClientPeriod, DeltaP, and Window define the
	// offered object set (see workload.SpecParams).
	Objects      int
	ObjectSize   int
	ClientPeriod time.Duration
	DeltaP       time.Duration
	Window       time.Duration
	// Scheduling selects normal or compressed update scheduling.
	Scheduling core.SchedulingMode
	// AdmissionControl enables the Section 4.2 admission tests.
	AdmissionControl bool
	// SlackFactor overrides the update-period slack (0 means the default
	// 0.5); 1.0 schedules at the Theorem 5 boundary with no loss margin.
	SlackFactor float64
	// DisableGapRecovery turns off backup-initiated retransmission (an
	// ablation of the §4.3 design).
	DisableGapRecovery bool
	// Duration is the measured virtual-time interval.
	Duration time.Duration
}

// Result aggregates the metrics of one run.
type Result struct {
	// Offered and Admitted count the object set before and after
	// admission control.
	Offered, Admitted int
	// Response is the distribution of client write response times.
	Response trace.DurationStats
	// Distance tracks the average maximum loss-induced primary-backup
	// distance: how far the backup's version lags a loss-free shadow
	// backup, beyond the client's sampling granularity (Figure 8).
	Distance *trace.DistanceTracker
	// StaleDistance tracks the average maximum absolute staleness of the
	// backup's copy (wall time since the version it holds was current),
	// sampled periodically. Unlike Distance it also grows when an
	// overloaded primary delays transmissions (Figures 9 and 10).
	StaleDistance *trace.DistanceTracker
	// InconsistencyTotal is the total time backup images spent beyond
	// δ_i^B, summed over objects; Excursions counts the maximal
	// violation intervals.
	InconsistencyTotal time.Duration
	Excursions         int
	// Sends, Applies, and Gaps count update transmissions, backup
	// applies, and detected sequence gaps.
	Sends, Applies, Gaps int
	// RetransmitRequests and RetransmitSuppressed count the backup's
	// gap-recovery requests actually sent and those absorbed by the
	// retransmission backoff during the measured interval.
	RetransmitRequests, RetransmitSuppressed int
	// Utilization is the primary's planned CPU utilization after
	// admission.
	Utilization float64
	// UpdatePeriod is the backup-update period r admission assigned the
	// last admitted object; every object shares one spec, so one period.
	UpdatePeriod time.Duration
	// Net is the fabric's delivery statistics.
	Net netsim.Stats
}

// Run executes one experiment configuration and returns its metrics.
func Run(p Params) (*Result, error) { return runHooked(p, nil) }

// sendHook observes each update transmission with its wall (virtual)
// instant; used by the phase-variance experiment.
type sendHook func(id uint32, name string, seq uint64, version time.Time, at time.Time)

func runHooked(p Params, onSend sendHook) (*Result, error) {
	if p.Duration <= 0 {
		return nil, fmt.Errorf("experiments: non-positive duration %v", p.Duration)
	}
	// Registration happens over a clean link; loss starts with the
	// measurement interval.
	f, hs, err := topo.Build(p.Seed, netsim.LinkParams{Delay: p.Delay, Jitter: p.Jitter}, "primary", "backup")
	if err != nil {
		return nil, err
	}
	clk := f.Clock

	primary, err := core.NewPrimary(core.Config{
		Clock:                   clk,
		Port:                    hs[0].Port,
		Peer:                    hs[1].Addr,
		Ell:                     p.Ell,
		Scheduling:              p.Scheduling,
		SlackFactor:             p.SlackFactor,
		DisableAdmissionControl: !p.AdmissionControl,
		// The paper's prototype buffers update transmissions without
		// bound — that unbounded queueing is precisely what produces the
		// Figure 7/10 response-time explosion when admission control is
		// off, so the reproduction keeps it (the resilience layer's
		// bounded send queues are measured separately by the chaos
		// harness and rtpbench -json).
		SendQueueLimit: core.UnboundedSendQueue,
	})
	if err != nil {
		return nil, err
	}
	backup, err := core.NewBackup(core.Config{
		Clock:              clk,
		Port:               hs[1].Port,
		Peer:               hs[0].Addr,
		Ell:                p.Ell,
		DisableGapRecovery: p.DisableGapRecovery,
	})
	if err != nil {
		return nil, err
	}

	specs := workload.Specs(workload.SpecParams{
		N:            p.Objects,
		Size:         p.ObjectSize,
		ClientPeriod: p.ClientPeriod,
		DeltaP:       p.DeltaP,
		Window:       p.Window,
	})
	res := &Result{
		Offered:       p.Objects,
		Distance:      trace.NewDistanceTracker(),
		StaleDistance: trace.NewDistanceTracker(),
	}
	admitted := make([]core.ObjectSpec, 0, len(specs))
	for _, s := range specs {
		if d := primary.Register(s); d.Accepted {
			admitted = append(admitted, s)
			res.UpdatePeriod = d.UpdatePeriod
		}
	}
	res.Admitted = len(admitted)
	res.Utilization = primary.Utilization()
	clk.RunFor(100 * time.Millisecond) // registrations settle losslessly

	// Metric wiring. Primary-backup distance is measured against a
	// loss-free shadow backup: every transmitted update is also "applied"
	// to a shadow copy after the worst-case delay ℓ̂ = Delay+Jitter, and
	// the distance is how far the real backup's version lags the
	// shadow's. Under perfect delivery the real backup is never behind
	// the shadow (it receives each update at least as early), so the
	// distance is exactly the staleness *caused by message loss* — zero
	// at zero loss, growing with loss bursts, and growing with client
	// write rate because faster writers lose fresher versions.
	mon := temporal.NewMonitor()
	shadow := make(map[uint32]time.Time, len(admitted))
	held := make(map[uint32]time.Time, len(admitted))
	for _, s := range admitted {
		mon.TrackExternal("backup", s.Name, s.Constraint.DeltaB)
	}
	ellHat := p.Delay + p.Jitter
	// One client period of version lag is inherent sampling granularity
	// (the backup can never be fresher than the client's last write), so
	// distance counts only the lag beyond it: the staleness replication
	// itself introduced. Without this correction a slow writer's every
	// loss scores a full client period and the write-rate ordering of
	// Figure 8 inverts.
	observe := func(id uint32) {
		sh, okS := shadow[id]
		h, okH := held[id]
		if !okS || !okH {
			// The lossless warmup seeds both maps before measurement.
			return
		}
		d := sh.Sub(h) - p.ClientPeriod
		if d < 0 {
			d = 0
		}
		res.Distance.Observe(id, d)
	}
	measuring := false
	ids := make(map[string]uint32, len(admitted))
	primary.OnClientDone = func(name string, lat time.Duration) {
		if measuring {
			res.Response.Add(lat)
		}
	}
	primary.OnSend = func(id uint32, name string, seq uint64, version time.Time) {
		ids[name] = id
		if onSend != nil {
			onSend(id, name, seq, version, clk.Now())
		}
		clk.Schedule(ellHat, func() {
			if prev, ok := shadow[id]; !ok || version.After(prev) {
				shadow[id] = version
			}
			if measuring {
				observe(id)
			}
		})
		if measuring {
			res.Sends++
		}
	}
	backup.OnApply = func(id uint32, name string, _ uint32, _ uint64, version, at time.Time) {
		if prev, ok := held[id]; !ok || version.After(prev) {
			held[id] = version
		}
		if !measuring {
			return
		}
		res.Applies++
		mon.RecordUpdate("backup", name, version, at)
		observe(id)
	}
	backup.OnGap = func(uint32, uint64, uint64) {
		if measuring {
			res.Gaps++
		}
	}

	// Start clients with staggered offsets, warm the pipeline, then
	// switch on loss and measure.
	clients := make([]*workload.Client, 0, len(admitted))
	for i, s := range admitted {
		offset := time.Duration(i) * p.ClientPeriod / time.Duration(len(admitted))
		clients = append(clients, workload.NewClient(clk, primary, s.Name, offset, p.ClientPeriod, p.ObjectSize))
	}
	clk.RunFor(2 * p.ClientPeriod)
	if err := f.Net.SetDefaultLink(netsim.LinkParams{Delay: p.Delay, Jitter: p.Jitter, LossProb: p.Loss}); err != nil {
		return nil, err
	}
	preReq, preSup := backup.RetransmitStats()
	measuring = true
	// Sample raw backup staleness (primary's current version vs the
	// backup's applied version) on a fixed grid during measurement.
	sampler := clock.NewPeriodic(clk, 0, 100*time.Millisecond, func() {
		if !measuring {
			return
		}
		for _, s := range admitted {
			id, known := ids[s.Name]
			if !known {
				continue
			}
			h, okH := held[id]
			if !okH {
				continue
			}
			res.StaleDistance.Observe(id, clk.Now().Sub(h))
		}
	})
	clk.RunFor(p.Duration)
	sampler.Stop()
	measuring = false
	for _, c := range clients {
		c.Stop()
	}
	mon.FinishAt(clk.Now())

	for _, s := range admitted {
		if r, ok := mon.ExternalReport("backup", s.Name); ok {
			res.InconsistencyTotal += r.ViolationTime
			res.Excursions += r.Excursions
		}
	}
	req, sup := backup.RetransmitStats()
	res.RetransmitRequests, res.RetransmitSuppressed = req-preReq, sup-preSup
	res.Net = f.Net.Stats()
	primary.Stop()
	backup.Stop()
	return res, nil
}
