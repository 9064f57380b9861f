package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rtpb/internal/core"
)

// liveWorkload describes one in-process workload: the pair it runs on and
// the load it offers.
type liveWorkload struct {
	pair pairConfig
	rate float64 // open-loop writes/s
	ramp bool    // rate ladder + closed loop instead of one open loop
	// comb marks the workload whose write latency has two humps of about
	// equal weight, see the stand-in in runLive.
	comb bool
}

func liveWorkloads() map[string]liveWorkload {
	steady := pairConfig{objects: 32, size: 64, scheduling: core.ScheduleNormal}
	pump := steady
	pump.scheduling = core.ScheduleCompressed
	bulk := pairConfig{objects: 16, size: 16 << 10, scheduling: core.ScheduleNormal, mtu: 1400}
	return map[string]liveWorkload{
		"steady": {pair: steady, rate: 200},
		"ramp":   {pair: steady, ramp: true},
		"pump":   {pair: pump, rate: 200, comb: true},
		"bulk":   {pair: bulk, rate: 160},
	}
}

const (
	liveWarmup   = time.Second            // excluded from every open-loop window
	closedWarmup = 500 * time.Millisecond // excluded from the closed loop's
	readPeriod   = 5 * time.Millisecond   // one backup read per tick, round-robin
	setupReps    = 600                    // set-ups per run, see reportSetup
	closedDepth  = 4                      // writes in flight in ramp's closed loop
	rungLimitUs  = 5000.0                 // a rung passes with its tail at or under 5 ms
	genLimitUs   = 500.0                  // generator lag p99 above this: rung is generator_limited
	drainTimeout = 2 * time.Second        // for the backup to hold every last value

	// violationSlack is the absolute slack compare gives the two shares
	// (bound_violation_share, op_fail_share) against the parent, as the
	// issue sets it: a host that stops a CPU for 100 ms ages a few images
	// past the bound on its own, a system that breaks it does so on far
	// more reads.
	violationSlack = 0.002
)

// ramp's phases in hundredths of --seconds. The first rung is the
// reference rung the gated latency, propagation and staleness come from,
// so it is long enough to put 2000 reads behind its p99; the rungs above
// it only have to be judged pass or fail.
const (
	rampReference = 80
	rampRung      = 8
	rampClosed    = 20
)

var ladder = []float64{400, 800, 1600, 3200, 6400, 12800, 25600}

// applyEvent is the first apply of one version at the backup.
type applyEvent struct {
	version, at time.Time
}

// readSample is one certificate read of the backup.
type readSample struct {
	issued, done time.Time
	cert         core.Certificate
	ok           bool
}

// liveRun is the state of one in-process run. Fields are grouped by the
// goroutine that owns them while load is running; everything is read back
// through onLoop once it has stopped.
type liveRun struct {
	rep  *report
	pair *pair

	// generator goroutine
	rng   *rand.Rand
	order []int // seeded object order, cycled
	next  int

	// primary loop
	payload     [][]byte // per object: seeded bytes, write counter in the first 8
	lastWritten []uint64
	writeSeq    uint64

	// backup loop
	applies     []time.Time // appliedAt of every OnApply
	firstApply  []applyEvent
	held        map[uint32]time.Time // version the backup holds, per object id
	nonMonotone int
	gaps        int
	retransmits int
	reads       []readSample
}

func newLiveRun(w liveWorkload, p *pair, seed int64, tr *tracer, rep *report) *liveRun {
	r := &liveRun{rep: rep, pair: p,
		rng:  rand.New(rand.NewSource(seed)),
		held: make(map[uint32]time.Time)}
	r.order = r.rng.Perm(w.pair.objects)
	r.payload = make([][]byte, w.pair.objects)
	r.lastWritten = make([]uint64, w.pair.objects)
	for i := range r.payload {
		r.payload[i] = make([]byte, w.pair.size)
		r.rng.Read(r.payload[i])
	}
	onLoop(p.backup.clk, func() bool {
		b := p.backup.rep
		b.OnApply = func(id uint32, name string, _ uint32, _ uint64, version, at time.Time) {
			r.applies = append(r.applies, at)
			prev, seen := r.held[id]
			switch {
			case seen && version.Before(prev):
				r.nonMonotone++
			case !seen || version.After(prev):
				r.held[id] = version
				r.firstApply = append(r.firstApply, applyEvent{version, at})
				if tr != nil {
					tr.onFirstApply(name, version, at)
				}
			}
		}
		b.OnGap = func(uint32, uint64, uint64) { r.gaps++ }
		b.OnRetransmitRequest = func(uint32) { r.retransmits++ }
		return true
	})
	if tr != nil {
		tr.readAfterApply = func(name string, version time.Time, a *appliedUpdate) {
			b := p.backup
			b.clk.Post(func() {
				if cert, ok := b.rep.Certificate(name); ok && !cert.Version.Before(version) {
					a.certAt = time.Now()
				}
			})
		}
		onLoop(p.primary.clk, func() bool {
			p.primary.rep.OnSend = tr.onSend
			return true
		})
	}
	return r
}

func (r *liveRun) nextObject() int {
	obj := r.order[r.next%len(r.order)]
	r.next++
	return obj
}

// readBackup is the read stream: one Certificate read of the backup every
// readPeriod, round-robin over the objects, posted to the backup's loop
// the way ctl's READ is. It runs until stop is closed.
func (r *liveRun) readBackup(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	b := r.pair.backup
	next := time.Now()
	for i := 0; ; i++ {
		next = next.Add(readPeriod)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(next)):
		}
		name := r.pair.names[i%len(r.pair.names)]
		issued := time.Now()
		b.clk.Post(func() {
			cert, ok := b.rep.Certificate(name)
			r.reads = append(r.reads, readSample{issued: issued, done: time.Now(), cert: cert, ok: ok})
		})
	}
}

// windowStats is everything measured between two instants of a run.
type windowStats struct {
	seconds     float64
	writeSecs   float64 // from the window's start to its last completion
	attempted   int
	failed      int // writes that returned an error or never completed
	late        int // writes that completed, but after the window's grace
	writeUs     samples
	propagateUs samples
	applies     int
	staleMs     samples
	readUs      samples
	readsFailed int
	violations  int
}

// window extracts the stats of every op and event that falls in [from,
// to): nothing in the window is left out, whatever the host did meanwhile.
// Writes count by their due instant. One that completes after to + grace
// is late, not failed: whether a write beats a deadline depends on the host
// as much as on the system, whether it completes at all does not.
func (r *liveRun) window(ops []*writeOp, from, to time.Time, grace time.Duration) windowStats {
	in := func(t time.Time) bool { return !t.Before(from) && t.Before(to) }
	ws := windowStats{seconds: to.Sub(from).Seconds()}
	deadline := to.Add(grace)
	var lastDone time.Time
	// Ops are written by the primary loop; read them there.
	onLoop(r.pair.primary.clk, func() bool {
		for _, op := range ops {
			if !in(op.due) {
				continue
			}
			ws.attempted++
			if op.err != nil || op.done.IsZero() {
				ws.failed++
				continue
			}
			if op.done.After(deadline) {
				ws.late++
			}
			ws.writeUs.addDur(op.done.Sub(op.due))
			if op.done.After(lastDone) {
				lastDone = op.done
			}
		}
		return true
	})
	if !lastDone.IsZero() {
		ws.writeSecs = lastDone.Sub(from).Seconds()
	}
	onLoop(r.pair.backup.clk, func() bool {
		for _, at := range r.applies {
			if in(at) {
				ws.applies++
			}
		}
		for _, e := range r.firstApply {
			if in(e.version) {
				ws.propagateUs.addDur(e.at.Sub(e.version))
			}
		}
		for _, s := range r.reads {
			if !in(s.issued) {
				continue
			}
			if !s.ok {
				ws.readsFailed++
				continue
			}
			ws.staleMs.addDurMs(s.cert.Age)
			ws.readUs.addDur(s.done.Sub(s.issued))
			if s.cert.Age+s.cert.Theta > s.cert.Bound {
				ws.violations++
			}
		}
		return true
	})
	return ws
}

// rungVerdict is the outcome of one ladder rung.
type rungVerdict struct {
	rate    float64
	tailUs  float64
	tailPct float64
	ws      windowStats
	lagP99  float64
	verdict string // "pass", "generator_limited" or the reason it failed
}

func judgeRung(rate float64, ws windowStats, lagP99 float64) rungVerdict {
	v := rungVerdict{rate: rate, ws: ws, lagP99: lagP99}
	v.tailUs, v.tailPct = ws.writeUs.tail(0.99)
	// On a rung, as in the issue, a write that misses rung + grace is as
	// good as failed.
	missed := ws.failed + ws.late
	completed := float64(ws.attempted-missed) / float64(max(ws.attempted, 1))
	switch {
	case lagP99 > genLimitUs:
		v.verdict = "generator_limited"
	case missed > 0 && completed < 0.995:
		v.verdict = fmt.Sprintf("only %.1f%% completed", completed*100)
	case missed > 0:
		v.verdict = fmt.Sprintf("%d failed", missed)
	case ws.violations > 0:
		v.verdict = fmt.Sprintf("%d bound violations", ws.violations)
	case v.tailUs > rungLimitUs:
		v.verdict = fmt.Sprintf("p%g %.0f us > %.0f us", v.tailPct*100, v.tailUs, rungLimitUs)
	default:
		v.verdict = "pass"
	}
	return v
}

// runLive runs one in-process workload and fills rep with its metrics.
// measure is the length of the measured window (--seconds).
func runLive(w liveWorkload, seed int64, measure time.Duration, tr *tracer, rep *report) {
	cfg := w.pair
	if tr != nil {
		cfg.wrap = tr.wrap
	}
	begun := time.Now()
	p, setups, err := measureSetup(cfg, setupReps)
	if err != nil {
		rep.problem("set-up: %v", err)
		return
	}
	defer func() {
		if !p.close() {
			rep.problem("pair did not stop within %v and was abandoned", teardownTimeout)
		}
	}()

	r := newLiveRun(w, p, seed, tr, rep)
	stopReads, readsDone := make(chan struct{}), make(chan struct{})
	go r.readBackup(stopReads, readsDone)
	cpuDone := make(chan struct{})
	if tr != nil {
		go tr.sampleCPU(p, stopReads, cpuDone)
	} else {
		close(cpuDone)
	}

	// The generator owns an OS thread for the whole run so the thread
	// clock can tell its spinning apart from the system's CPU time.
	var ph, closed *phase // the gated open-loop window; ramp's closed loop
	var rungs []rungVerdict
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		if !w.ramp {
			ph = r.openLoop(w.rate, liveWarmup, measure)
			r.awaitCompletions(drainTimeout)
			return
		}
		for i, rate := range ladder {
			warm, length := measure*rampRung/1000, measure*rampRung/100
			if i == 0 {
				warm, length = liveWarmup, measure*rampReference/100
			}
			rp := r.openLoop(rate, warm, length)
			r.awaitCompletions(completionGrace)
			if i == 0 {
				ph = rp
			}
			ws := r.window(rp.ops, rp.from, rp.to, completionGrace)
			v := judgeRung(rate, ws, rp.lagUs.quantile(0.99))
			rungs = append(rungs, v)
			if v.verdict != "pass" {
				break
			}
		}
		// Let a failing rung's backlog drain before the closed loop, so
		// the loop measures the system and not the ladder's leftovers.
		r.awaitCompletions(4 * time.Second)
		closed = r.closedLoop(closedDepth, closedWarmup, measure*rampClosed/100)
		r.awaitCompletions(drainTimeout)
	}()
	<-genDone
	close(stopReads)
	<-readsDone
	<-cpuDone

	reportSetup(rep, begun, ph.from, setups)
	ws := r.window(ph.ops, ph.from, ph.to, completionGrace)
	// The driver is told of the operations that failed outright: a write
	// that returned an error or never completed. A write that was late and a
	// read that found an image older than delta_B were served; how many of
	// them a run sees is decided by how long the host stood still as much as
	// by the system, so they are reported as shares (op_fail_share,
	// bound_violation_share) and as the latency and staleness they add to.
	rep.ops(ws.attempted, ws.failed)
	completed := ws.attempted - ws.failed
	rep.set("write_mid_us", ws.writeUs.midmean(), len(ws.writeUs))
	rep.set("write_p50_us", ws.writeUs.median(), len(ws.writeUs))
	rep.setTail("write_p99_us", ws.writeUs, 0.99)
	if w.comb {
		// With the loop saturated by sends, a write waits one timer tick or
		// two, about half and half; the share moves with the host's wake-up
		// latency from one minute to the next, and the middle of the
		// distribution with it, by 20 % and more across ten runs. The first
		// quartile stays on the lower tooth and repeats; it is blind to how
		// many writes wait a second tick (write_p50_us, not gated, shows).
		rep.standIn("write_mid_us", ws.writeUs.quantile(0.25), "first quartile of write latency")
	}
	rep.set("write_per_s", float64(completed)/max(ws.writeSecs, 1e-9), completed)
	rep.set("propagate_p50_us", ws.propagateUs.median(), len(ws.propagateUs))
	rep.setTail("propagate_p99_us", ws.propagateUs, 0.99)
	rep.set("apply_per_s", float64(ws.applies)/ws.seconds, ws.applies)
	rep.setTail("stale_p99_ms", ws.staleMs, 0.99)
	rep.setTail("read_p99_us", ws.readUs, 0.99)
	rep.set("bound_violation_share", float64(ws.violations)/float64(max(len(ws.staleMs), 1)), len(ws.staleMs))
	rep.set("op_fail_share", float64(ws.failed+ws.late)/float64(max(ws.attempted, 1)), ws.attempted)
	if completed > 0 {
		kw := float64(completed) / 1000
		rep.set("cpu_ms_per_kwrite", float64(ph.systemCPU())/float64(time.Millisecond)/kw, completed)
		rep.set("allocs_per_write", float64(ph.mallocs())/float64(completed), completed)
	}
	rep.set("gen.lag_us_p50", ph.lagUs.median(), len(ph.lagUs))
	rep.setTail("gen.lag_us_p99", ph.lagUs, 0.99)
	rep.set("host.steal_ms", float64(ph.stolen())/float64(time.Millisecond), 0)
	if w.ramp {
		best := 0.0
		for _, v := range rungs {
			if v.verdict == "pass" {
				best = v.rate
			}
			rep.note("rung %5.0f/s: %s (p%g %.0f us, %d/%d completed, gen lag p99 %.0f us)",
				v.rate, v.verdict, v.tailPct*100, v.tailUs, v.ws.attempted-v.ws.failed-v.ws.late, v.ws.attempted, v.lagP99)
		}
		rep.set("write_max_rate", best, len(rungs))
		cs := r.window(closed.ops, closed.from, closed.to, completionGrace)
		sat := float64(cs.attempted-cs.failed) / max(cs.writeSecs, 1e-9)
		rep.set("write_sat_per_s", sat, cs.attempted-cs.failed)
		rep.set("write_per_s", sat, cs.attempted-cs.failed)
		rep.note("closed loop of %d: write mid %.0f us, %d of %d reads broke delta_B", closedDepth, cs.writeUs.midmean(), cs.violations, len(cs.staleMs))
	} else {
		rep.annotate("write_per_s", "stand-in: the offered rate unless the system collapses")
	}
	if ws.violations > 0 || ws.late > 0 {
		rep.note("%d of %d reads broke delta_B, %d of %d writes completed more than %v after the window", ws.violations, len(ws.staleMs), ws.late, ws.attempted, completionGrace)
	}
	if ws.readsFailed > 0 {
		rep.problem("%d reads in the window found no value at the backup", ws.readsFailed)
	}
	r.finish(rep)
	if tr != nil {
		tr.report(r, ph, rep)
	}
}

// finish runs the checks every live run ends with: the backup converges
// on the last value written to each object, versions never went
// backwards, and nothing is left unfinished.
func (r *liveRun) finish(rep *report) {
	p := r.pair
	if out := rep.issued.Load() - rep.completed.Load(); out > 0 {
		rep.problem("%d writes never completed", out)
	}
	want := onLoop(p.primary.clk, func() [][]byte {
		out := make([][]byte, len(r.payload))
		for i, buf := range r.payload {
			if r.lastWritten[i] != 0 {
				out[i] = append([]byte(nil), buf...)
			}
		}
		return out
	})
	deadline := time.Now().Add(drainTimeout)
	for {
		stale := onLoop(p.backup.clk, func() string {
			for i, w := range want {
				if w == nil {
					continue
				}
				if got, _, ok := p.backup.rep.Value(p.names[i]); !ok || !bytes.Equal(got, w) {
					return p.names[i]
				}
			}
			return ""
		})
		if stale == "" {
			break
		}
		if time.Now().After(deadline) {
			rep.problem("after %v the backup's %s still differs from the last value written", drainTimeout, stale)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	onLoop(p.backup.clk, func() bool {
		if r.nonMonotone > 0 {
			rep.problem("%d applies moved an object's version backwards", r.nonMonotone)
		}
		rep.set("core.gaps", float64(r.gaps), 0)
		rep.set("core.retransmit_requests", float64(r.retransmits), 0)
		return true
	})
	onLoop(p.primary.clk, func() bool {
		if link, ok := p.primary.rep.PeerLink(p.primary.rep.Peers()[0]); ok {
			rep.set("core.deadline_misses", float64(link.Queue.Coalesced), 0)
		}
		return true
	})
}
