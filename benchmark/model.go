package main

import (
	"runtime"
	"slices"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/experiments"
)

// The model workload runs the simulator the figures are regenerated
// with. It measures two things on the wall clock: how long the simulated
// pair takes to set up, and how fast the simulator runs (write_per_s,
// sim_x_realtime, cpu_ms_per_kwrite, allocs_per_write). Its counters repeat
// exactly. It clocks no latency and is not in BENCHMARK.json's list (see
// the catalogue): `all`, `run model`, `repeat` and `compare` cover it.

const (
	// modelReps repetitions on one seed: their counters must be identical.
	// The simulator is one CPU-bound thread and the host only ever slows a
	// repetition down, by up to half for a fraction of a second at a time:
	// of thirty repetitions of 0.2 s the slowest ran at 413-620x real time
	// and the fastest at 931-1081x, while their ninth decile stayed within
	// 909-968x. The speed a run reports is that of its ninth-decile
	// repetition: what the simulator does when the host leaves it alone.
	modelReps = 40
	// modelSetupReps one-millisecond runs time the simulated pair's set-up.
	modelSetupReps = 300
	// modelVirtualPerSecond scales the simulated interval with --seconds:
	// 9 virtual s per repetition and second, 4680 virtual s in all at 13 s.
	modelVirtualPerSecond = 9
)

func modelParams(seed int64, d time.Duration) experiments.Params {
	return experiments.Params{
		Seed:             seed,
		Delay:            2 * time.Millisecond,
		Jitter:           time.Millisecond,
		Loss:             0.10,
		Ell:              ell,
		Objects:          32,
		ObjectSize:       64,
		ClientPeriod:     declaredPeriod,
		DeltaP:           declaredDeltaP,
		Window:           declaredDeltaB - declaredDeltaP,
		Scheduling:       core.ScheduleNormal,
		AdmissionControl: true,
		Duration:         d,
	}
}

// modelCounters are the counts that must repeat exactly.
type modelCounters struct {
	sends, applies, gaps, retransmits, delivered, dropped, excursions int
}

func countersOf(r *experiments.Result) modelCounters {
	return modelCounters{r.Sends, r.Applies, r.Gaps, r.RetransmitRequests, r.Net.Delivered, r.Net.DroppedLoss, r.Excursions}
}

func runModel(seed int64, measure time.Duration, rep *report) {
	// Set-up: build the simulated pair, register and let registration
	// settle, with next to nothing measured behind it.
	var setups samples
	for i := 0; i < modelSetupReps; i++ {
		t0 := time.Now()
		if _, err := experiments.Run(modelParams(seed, time.Millisecond)); err != nil {
			rep.problem("set-up: %v", err)
			return
		}
		setups.add(time.Since(t0).Seconds())
	}
	// Pure computation on one thread: the fastest repetition is what the
	// code costs, and it repeats.
	rep.set("setup_s", slices.Min(setups), len(setups))
	rep.set("setup_once_us", slices.Min(setups)*1e6, len(setups))

	virtual := time.Duration(measure.Seconds()*modelVirtualPerSecond) * time.Second
	var speed samples
	var first modelCounters
	var writes int // of one repetition; they all count the same
	var cpu time.Duration
	var mallocs uint64
	steal0 := hostSteal()
	for i := 0; i < modelReps; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c0, t0 := processCPU(), time.Now()
		res, err := experiments.Run(modelParams(seed, virtual))
		d := time.Since(t0)
		if err != nil {
			rep.problem("experiments.Run: %v", err)
			return
		}
		cpu += processCPU() - c0
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		speed.add(virtual.Seconds() / d.Seconds())
		writes = res.Response.Count()
		if res.Admitted != res.Offered {
			rep.problem("model admitted %d of %d objects", res.Admitted, res.Offered)
		}
		if c := countersOf(res); i == 0 {
			first = c
		} else if c != first {
			rep.problem("model counters differ between repetitions with one seed: %+v vs %+v", first, c)
		}
	}
	rep.ops(writes*modelReps, 0)
	rep.set("host.steal_ms", float64(hostSteal()-steal0)/float64(time.Millisecond), 0)
	rep.set("sim_x_realtime", speed.median(), len(speed))
	// One repetition at the ninth-decile speed takes this many wall seconds.
	undisturbed := virtual.Seconds() / speed.quantile(0.9)
	rep.set("write_per_s", float64(writes)/undisturbed, writes)
	all := float64(writes * modelReps)
	rep.set("cpu_ms_per_kwrite", float64(cpu)/float64(time.Millisecond)/(all/1000), writes*modelReps)
	rep.set("allocs_per_write", float64(mallocs)/all, writes*modelReps)
	rep.set("op_fail_share", 0, writes)
	rep.set("model.sends", float64(first.sends), 0)
	rep.set("model.applies", float64(first.applies), 0)
	rep.set("model.gaps", float64(first.gaps), 0)
	rep.set("model.retransmit_requests", float64(first.retransmits), 0)
	rep.set("model.datagrams_delivered", float64(first.delivered), 0)
	rep.set("model.datagrams_dropped", float64(first.dropped), 0)
	rep.set("model.excursions", float64(first.excursions), 0)
}
