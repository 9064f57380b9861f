package main

import (
	"encoding/binary"
	"runtime"
	"time"
)

// spinMargin is how long before an op's due instant the generator stops
// sleeping and starts spinning. The host's timers fire about 1.1 ms late
// (see README "Host stamp"), so a sleep alone would add that much lag to
// every due-based latency; sleeping to due - 2 ms and spinning the rest
// keeps the lag under a few microseconds.
const spinMargin = 2 * time.Millisecond

// waitUntil returns once due has passed and reports how late it returned.
// The spin deliberately does not yield: the generator goroutine is pinned
// to its own OS thread, so its CPU time can be read from the thread clock
// and kept out of the system's CPU metric. The runtime still preempts it
// every 10 ms if both processors are wanted.
func waitUntil(due time.Time) time.Duration {
	if d := time.Until(due) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for {
		if late := time.Since(due); late >= 0 {
			return late
		}
	}
}

// writeOp is one client write as the generator and the primary loop saw
// it. The generator fills obj, due and post before posting; the primary
// loop fills the rest, so after posting only the loop may touch an op.
type writeOp struct {
	obj   int
	due   time.Time // open loop: the scheduled instant; closed loop: the issue instant
	post  time.Time // the generator handed the write to the primary's loop
	start time.Time // the posted closure began (ClientWrite is called here)
	done  time.Time // the done callback ran; zero while unfinished
	err   error
}

// usage is a reading of the counters the per-write cost metrics are
// differences of. It must be taken on the generator's pinned thread.
type usage struct {
	process, generator time.Duration
	mallocs            uint64
	steal              time.Duration // of the whole machine, see hostSteal
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{process: processCPU(), generator: threadCPU(), mallocs: ms.Mallocs, steal: hostSteal()}
}

// phase is one stretch of generated load and what the generator itself
// observed of it.
type phase struct {
	ops      []*writeOp
	from, to time.Time // the measured window; ops due outside it are warm-up
	lagUs    samples   // generator lateness of the ops in the window
	before   usage     // at from
	after    usage     // at to
}

// systemCPU is the CPU the process used in the window on every thread but
// the generator's.
func (p *phase) systemCPU() time.Duration {
	return (p.after.process - p.before.process) - (p.after.generator - p.before.generator)
}

func (p *phase) mallocs() uint64 { return p.after.mallocs - p.before.mallocs }

// stolen is the CPU time the hypervisor withheld from the machine during
// the window. It is reported beside the run's numbers and changes none of
// them: every op and every sample of the window counts.
func (p *phase) stolen() time.Duration { return p.after.steal - p.before.steal }

// issue hands one write to the primary's loop, as internal/ctl does for a
// WRITE line: the generator never calls into the replica itself.
func (r *liveRun) issue(op *writeOp, onDone func()) {
	r.rep.issued.Add(1)
	op.post = time.Now()
	r.pair.primary.clk.Post(func() {
		op.start = time.Now()
		r.writeSeq++
		buf := r.payload[op.obj]
		binary.BigEndian.PutUint64(buf, r.writeSeq)
		r.lastWritten[op.obj] = r.writeSeq
		r.pair.primary.rep.ClientWrite(r.pair.names[op.obj], buf, func(_ time.Duration, err error) {
			op.done = time.Now()
			op.err = err
			r.rep.completed.Add(1)
			if onDone != nil {
				onDone()
			}
		})
	})
}

// openLoop issues writes on a fixed schedule for warm+measure, whatever
// the system does with them, and times each from its due instant.
func (r *liveRun) openLoop(rate float64, warm, measure time.Duration) *phase {
	period := time.Duration(float64(time.Second) / rate)
	// A seeded phase offset decorrelates the write schedule from the
	// update schedule that registration started.
	start := time.Now().Add(spinMargin + time.Duration(r.rng.Int63n(int64(declaredPeriod))))
	n := int(rate * (warm + measure).Seconds())
	p := &phase{ops: make([]*writeOp, 0, n), from: start.Add(warm), to: start.Add(warm + measure)}
	measuring := false
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if !measuring && !due.Before(p.from) {
			waitUntil(p.from)
			p.before = readUsage()
			measuring = true
		}
		lag := waitUntil(due)
		op := &writeOp{obj: r.nextObject(), due: due}
		p.ops = append(p.ops, op)
		if measuring {
			p.lagUs.addDur(lag)
		}
		r.issue(op, nil)
	}
	waitUntil(p.to)
	p.after = readUsage()
	return p
}

// closedLoop keeps `outstanding` writes in flight: the next is issued only
// when one completes, so a slow system receives less load.
func (r *liveRun) closedLoop(outstanding int, warm, measure time.Duration) *phase {
	start := time.Now()
	p := &phase{from: start.Add(warm), to: start.Add(warm + measure)}
	// One slot per write in flight, so a completion never blocks the loop.
	finished := make(chan struct{}, outstanding)
	notify := func() { finished <- struct{}{} }
	send := func() {
		op := &writeOp{obj: r.nextObject(), due: time.Now()}
		p.ops = append(p.ops, op)
		r.issue(op, notify)
	}
	for i := 0; i < outstanding; i++ {
		send()
	}
	measuring := false
	// A stalled system must not hold the generator past the window.
	stall := time.NewTimer(warm + measure + completionGrace)
	defer stall.Stop()
	for {
		select {
		case <-finished:
		case <-stall.C:
			p.after = readUsage()
			return p
		}
		now := time.Now()
		if !measuring && !now.Before(p.from) {
			p.before = readUsage()
			p.from = time.Now()
			measuring = true
		}
		if !now.Before(p.to) {
			p.to = now
			p.after = readUsage()
			return p
		}
		send()
	}
}

// completionGrace is how long after a phase's last due instant a write may
// still complete and count (the issue's "rung + 250 ms").
const completionGrace = 250 * time.Millisecond

// awaitCompletions waits until every issued write has completed, or the
// grace period has passed.
func (r *liveRun) awaitCompletions(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for r.rep.completed.Load() < r.rep.issued.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}
