package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rtpb/internal/xkernel"
)

// The traced run records, from outside the program, the instants one
// update passes on its way from the generator to a reader of the backup:
//
//	due -> post -> start -> done -> send -> apply -> cert
//
// and names the stretches between them gen.lag, clock.queue, cpu.write,
// core.send_wait, net.oneway and core.cert. Adjacent stages share their
// boundary instant, so gen.lag .. net.oneway partition due -> first apply
// exactly, by construction; there is nothing to measure about that. net.oneway has two children measured by the transport
// decorator — netsim.send (inside the primary's Send) and netsim.deliver
// (inside the backup's receiver callback, up to the apply) — and its self
// time is what remains: kernel, read loop and the backup loop's queue.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace's epoch
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Update string `json:"update"` // object name @ version stamp
}

type timeSpan struct{ start, end time.Time }

func (s timeSpan) dur() time.Duration { return s.end.Sub(s.start) }

// sentUpdate is the first transmission of one version.
type sentUpdate struct {
	version   time.Time
	sendStart time.Time     // the first Send call of the datagram(s) carrying it
	sendTime  time.Duration // time inside those Send calls
}

// appliedUpdate is the first apply of one version and the read after it.
type appliedUpdate struct {
	version     time.Time
	at          time.Time
	deliverTime time.Duration // receiver-callback time up to the apply
	certAt      time.Time     // a posted Certificate read showed the version
}

type cpuSample struct {
	at    time.Time
	busy  time.Duration
	queue int
}

// tracer holds the spans of one traced run. Like liveRun its fields are
// owned by one loop each while load runs.
type tracer struct {
	epoch time.Time

	// primary loop
	sends     []timeSpan
	sendBytes []int
	claimed   int // sends[:claimed] belong to updates already announced by OnSend
	lastStart time.Time
	lastTime  time.Duration
	sent      map[string][]sentUpdate
	cpu       []cpuSample

	// backup loop
	delivers  []timeSpan
	inDeliver time.Time     // start of the receiver callback now running
	carried   time.Duration // callbacks since the last apply (earlier fragments)
	applied   map[string][]*appliedUpdate
	// readAfterApply posts the Certificate read that closes core.cert.
	readAfterApply func(name string, version time.Time, a *appliedUpdate)
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sent: make(map[string][]sentUpdate), applied: make(map[string][]*appliedUpdate)}
}

// tracedTransport is the counting/timing decorator around the
// xkernel.Transport a node's graph is built on.
type tracedTransport struct {
	xkernel.Transport
	t       *tracer
	primary bool
}

func (t *tracer) wrap(primary bool, tr xkernel.Transport) xkernel.Transport {
	return &tracedTransport{Transport: tr, t: t, primary: primary}
}

func (d *tracedTransport) Send(to string, payload []byte) error {
	if !d.primary {
		return d.Transport.Send(to, payload)
	}
	start := time.Now()
	err := d.Transport.Send(to, payload)
	d.t.sends = append(d.t.sends, timeSpan{start, time.Now()})
	d.t.sendBytes = append(d.t.sendBytes, len(payload))
	return err
}

func (d *tracedTransport) SetReceiver(fn func(from string, payload []byte)) {
	if d.primary {
		d.Transport.SetReceiver(fn)
		return
	}
	d.Transport.SetReceiver(func(from string, payload []byte) {
		t := d.t
		start := time.Now()
		t.inDeliver = start
		fn(from, payload)
		end := time.Now()
		t.delivers = append(t.delivers, timeSpan{start, end})
		if !t.inDeliver.IsZero() {
			t.carried += end.Sub(start) // no apply claimed it: a fragment
		}
		t.inDeliver = time.Time{}
	})
}

// onSend is the primary's OnSend hook. The replica calls it right after
// pushing the datagram(s), once per update they carried, so the Send
// calls not yet claimed belong to this update and to the ones announced
// straight after it.
func (t *tracer) onSend(_ uint32, name string, _ uint64, version time.Time) {
	if t.claimed < len(t.sends) {
		t.lastStart = t.sends[t.claimed].start
		t.lastTime = 0
		for _, s := range t.sends[t.claimed:] {
			t.lastTime += s.dur()
		}
		t.claimed = len(t.sends)
	}
	if l := t.sent[name]; len(l) > 0 && !version.After(l[len(l)-1].version) {
		return // a periodic re-send of a version already on the wire
	}
	t.sent[name] = append(t.sent[name], sentUpdate{version: version, sendStart: t.lastStart, sendTime: t.lastTime})
}

// onFirstApply runs inside the backup's receiver callback.
func (t *tracer) onFirstApply(name string, version, at time.Time) {
	a := &appliedUpdate{version: version, at: at}
	if !t.inDeliver.IsZero() {
		a.deliverTime = t.carried + at.Sub(t.inDeliver)
		t.carried = 0
		t.inDeliver = time.Time{} // claimed; later applies of this datagram share it
	}
	t.applied[name] = append(t.applied[name], a)
	t.readAfterApply(name, version, a)
}

// sampleCPU reads the primary's processor model every readPeriod.
func (t *tracer) sampleCPU(p *pair, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(readPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		p.primary.clk.Post(func() {
			c := p.primary.rep.CPU()
			t.cpu = append(t.cpu, cpuSample{time.Now(), c.BusyTime(), c.QueueLen()})
		})
	}
}

// report joins the generator's ops with the hooks' records, fills the
// trace.* and traced per-layer metrics, and writes the span file.
func (t *tracer) report(r *liveRun, ph *phase, rep *report) {
	in := func(x time.Time) bool { return !x.Before(ph.from) && x.Before(ph.to) }
	stages := map[string]*samples{}
	for _, n := range []string{"gen.lag", "clock.queue", "cpu.write", "core.send_wait", "net.oneway", "core.cert"} {
		stages[n] = &samples{}
	}
	var spans []span
	var sendSelf, deliverSelf, onewaySelf, propagate samples
	ns := func(x time.Time) int64 { return int64(x.Sub(t.epoch)) }

	type joined struct {
		op   writeOp
		sent sentUpdate
		app  appliedUpdate
	}
	var updates []joined
	onLoop(r.pair.primary.clk, func() bool {
		onLoop(r.pair.backup.clk, func() bool {
			for _, op := range ph.ops {
				if !in(op.due) || op.done.IsZero() || op.err != nil {
					continue
				}
				name := r.pair.names[op.obj]
				s, okS := findSent(t.sent[name], op.start, op.done)
				if !okS {
					continue // overwritten before its send slot, or lost
				}
				a, okA := findApplied(t.applied[name], s.version)
				if !okA {
					continue
				}
				updates = append(updates, joined{*op, s, *a})
			}
			return true
		})
		return true
	})
	for _, u := range updates {
		name := r.pair.names[u.op.obj]
		id := fmt.Sprintf("%s@%d", name, u.sent.version.UnixNano())
		marks := []time.Time{u.op.due, u.op.post, u.op.start, u.op.done, u.sent.sendStart, u.app.at}
		names := []string{"gen.lag", "clock.queue", "cpu.write", "core.send_wait", "net.oneway"}
		spans = append(spans, span{Name: "update", Start: ns(u.op.due), End: ns(u.app.at), Update: id})
		for i, n := range names {
			stages[n].addDur(marks[i+1].Sub(marks[i]))
			spans = append(spans, span{Name: n, Start: ns(marks[i]), End: ns(marks[i+1]), Parent: "update", Update: id})
		}
		spans = append(spans,
			span{Name: "netsim.send", Start: ns(u.sent.sendStart), End: ns(u.sent.sendStart.Add(u.sent.sendTime)), Parent: "net.oneway", Update: id},
			span{Name: "netsim.deliver", Start: ns(u.app.at.Add(-u.app.deliverTime)), End: ns(u.app.at), Parent: "net.oneway", Update: id})
		onewaySelf.addDur(u.app.at.Sub(u.sent.sendStart) - u.sent.sendTime - u.app.deliverTime)
		propagate.addDur(u.app.at.Sub(u.sent.version))
		if !u.app.certAt.IsZero() {
			stages["core.cert"].addDur(u.app.certAt.Sub(u.app.at))
			spans = append(spans, span{Name: "core.cert", Start: ns(u.app.at), End: ns(u.app.certAt), Parent: "update", Update: id})
		}
	}

	var datagrams, bytesSent, updatesSent int
	var cpuFirst, cpuLast *cpuSample
	var queueLen samples
	onLoop(r.pair.primary.clk, func() bool {
		for i, s := range t.sends {
			if in(s.start) {
				datagrams++
				bytesSent += t.sendBytes[i]
				sendSelf.addDur(s.dur())
			}
		}
		for _, l := range t.sent {
			for _, s := range l {
				if in(s.sendStart) {
					updatesSent++
				}
			}
		}
		for i := range t.cpu {
			if c := &t.cpu[i]; in(c.at) {
				if cpuFirst == nil {
					cpuFirst = c
				}
				cpuLast = c
				queueLen.add(float64(c.queue))
			}
		}
		return true
	})
	applies := 0
	onLoop(r.pair.backup.clk, func() bool {
		for _, s := range t.delivers {
			if in(s.start) {
				deliverSelf.addDur(s.dur())
			}
		}
		for _, at := range r.applies {
			if in(at) {
				applies++
			}
		}
		return true
	})

	for n, s := range stages {
		rep.set("trace."+n+"_us_p50", s.median(), len(*s))
		rep.setTail("trace."+n+"_us_p99", *s, 0.99)
	}
	rep.set("trace.propagate_p50_us", propagate.median(), len(propagate))
	rep.set("core.send_wait_us_p50", stages["core.send_wait"].median(), len(*stages["core.send_wait"]))
	rep.setTail("core.send_wait_us_p99", *stages["core.send_wait"], 0.99)
	rep.set("netsim.send_self_us_p50", sendSelf.median(), len(sendSelf))
	rep.set("netsim.deliver_self_us_p50", deliverSelf.median(), len(deliverSelf))
	if updatesSent > 0 {
		rep.set("netsim.dgrams_per_update", float64(datagrams)/float64(updatesSent), updatesSent)
		rep.set("netsim.bytes_per_update", float64(bytesSent)/float64(updatesSent), updatesSent)
	}
	if datagrams > 0 {
		rep.set("core.batch_size_mean", float64(applies)/float64(datagrams), datagrams)
	}
	if cpuFirst != nil && cpuLast != cpuFirst {
		rep.set("cpu.busy_share", float64(cpuLast.busy-cpuFirst.busy)/float64(cpuLast.at.Sub(cpuFirst.at)), len(queueLen))
		rep.setTail("cpu.queue_len_p99", queueLen, 0.99)
	}
	rep.note("traced updates joined end to end: %d; net.oneway self time p50 %.0f us", len(updates), onewaySelf.median())
	if len(updates) == 0 {
		rep.problem("the traced run joined no update from due to first apply")
	}

	path, err := writeSpans(rep.Workload, rep.Seed, spans)
	if err != nil {
		rep.problem("writing spans: %v", err)
		return
	}
	rep.traceFile(path)
}

// findSent returns the first transmission of the version a write created:
// ClientWrite stamps the version between the closure's start and done.
func findSent(l []sentUpdate, start, done time.Time) (sentUpdate, bool) {
	for _, s := range l {
		if !s.version.Before(start) && !s.version.After(done) {
			return s, true
		}
	}
	return sentUpdate{}, false
}

func findApplied(l []*appliedUpdate, version time.Time) (*appliedUpdate, bool) {
	for _, a := range l {
		if a.version.Equal(version) {
			return a, true
		}
	}
	return nil, false
}

// writeSpans writes the run's spans where build outputs go.
func writeSpans(workload string, seed int64, spans []span) (string, error) {
	dir, err := buildDir()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
