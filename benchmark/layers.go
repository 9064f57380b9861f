package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"rtpb"
	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/cpu"
	"rtpb/internal/ctl"
	"rtpb/internal/durable"
	"rtpb/internal/failover"
	"rtpb/internal/gateway"
	"rtpb/internal/netsim"
	"rtpb/internal/sched"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// The layer suite times isolated calls into each layer's exported
// functions: ns/op is a mean over a fixed iteration count, allocs/op the
// process-wide MemStats.Mallocs delta over the same loop. Nothing else
// runs while a layer is measured. The counts are sized so the whole suite
// takes a few seconds.

// perOp runs fn iters times and reports its mean time and allocations.
func perOp(iters int, fn func()) (ns, allocs float64) {
	fn() // first-use costs (lazy tables, buffer growth) are not the layer's steady cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// sinkTransport is an xkernel.Transport that keeps what is sent to it and
// lets the suite inject datagrams at the bottom of a graph.
type sinkTransport struct {
	name string
	recv func(from string, payload []byte)
	sent [][]byte // kept only while keep is set
	keep bool
}

func (s *sinkTransport) Send(_ string, payload []byte) error {
	if s.keep {
		s.sent = append(s.sent, append([]byte(nil), payload...))
	}
	return nil
}
func (s *sinkTransport) SetReceiver(fn func(from string, payload []byte)) { s.recv = fn }
func (s *sinkTransport) LocalAddr() string                                { return s.name }
func (s *sinkTransport) Close() error                                     { return nil }

func update64(id uint32, size int) *wire.Update {
	return &wire.Update{Epoch: 1, ObjectID: id, Seq: 1, Version: 1_700_000_000_000_000_000, Payload: make([]byte, size)}
}

// runLayers measures every layer and fills rep with the layer metrics.
func runLayers(rep *report) {
	for _, step := range []struct {
		name string
		fn   func(*report) error
	}{
		{"cpu", layerCPU}, {"clock", layerClock}, {"wire", layerWire}, {"xkernel", layerXkernel},
		{"netsim", layerUDP}, {"core", layerCore}, {"durable", layerDurable}, {"ctl", layerCtl},
		{"sched", layerSched}, {"failover", layerPromote}, {"gateway", layerGateway},
	} {
		if err := step.fn(rep); err != nil {
			rep.problem("layer %s: %v", step.name, err)
		}
	}
}

// chain runs n dependent steps on a RealClock loop: each step calls next
// when it is over, so step i+1 starts when step i completed.
func chain(clk *clock.RealClock, n int, step func(next func())) time.Duration {
	done := make(chan struct{})
	t0 := time.Now()
	var run func(i int)
	run = func(i int) {
		if i == n {
			close(done)
			return
		}
		step(func() { run(i + 1) })
	}
	clk.Post(func() { run(0) })
	<-done
	return time.Since(t0)
}

func layerCPU(rep *report) error {
	clk := clock.NewReal()
	defer clk.Stop()
	const cost = 200 * time.Microsecond
	res := onLoop(clk, func() *cpu.Resource { return cpu.New(clk) })
	var overrun samples
	chain(clk, 150, func(next func()) {
		t0 := time.Now()
		res.Submit(cpu.Low, cost, func() {
			overrun.addDur(time.Since(t0) - cost)
			next()
		})
	})
	rep.set("cpu.submit_overrun_us_p50", overrun.median(), len(overrun))
	rep.setTail("cpu.submit_overrun_us_p99", overrun, 0.99)

	costs := core.DefaultCosts()
	write64 := costs.ClientOp + 64*costs.PerByte
	const n = 200
	d := chain(clk, n, func(next func()) { res.Submit(cpu.Low, write64, next) })
	rep.set("cpu.ops_per_s", n/d.Seconds(), n)
	return nil
}

func layerClock(rep *report) error {
	clk := clock.NewReal()
	defer clk.Stop()
	var post samples
	ran := make(chan time.Time)
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		clk.Post(func() { ran <- time.Now() })
		post.addDur((<-ran).Sub(t0))
	}
	rep.set("clock.post_us_p50", post.median(), len(post))

	const n = 100000
	var count atomic.Int64
	finished := make(chan struct{})
	fn := func() {
		if count.Add(1) == n {
			close(finished)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		clk.Post(fn)
	}
	<-finished
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	rep.set("clock.post_per_s", n/d.Seconds(), n)
	rep.set("clock.post_allocs", float64(after.Mallocs-before.Mallocs)/n, n)

	const delay = 200 * time.Microsecond
	var overshoot samples
	chain(clk, 150, func(next func()) {
		t0 := time.Now()
		clk.Schedule(delay, func() {
			overshoot.addDur(time.Since(t0) - delay)
			next()
		})
	})
	rep.set("clock.timer_overshoot_us_p50", overshoot.median(), len(overshoot))
	rep.setTail("clock.timer_overshoot_us_p99", overshoot, 0.99)

	sim := clock.NewSim()
	nop := func() {}
	ns, _ := perOp(2000, func() {
		for i := 0; i < 100; i++ {
			sim.Schedule(time.Duration(i)*time.Microsecond, nop)
		}
		sim.RunFor(time.Millisecond)
	})
	rep.set("clock.sim_event_ns", ns/100, 2000*100)
	return nil
}

func layerWire(rep *report) error {
	u64, u16k := update64(1, 64), update64(1, 16<<10)
	var buf []byte
	ns, allocs := perOp(200000, func() { buf = wire.AppendEncode(buf[:0], u64) })
	rep.set("wire.encode_update_64_ns", ns, 200000)
	rep.set("wire.encode_update_64_allocs", allocs, 200000)
	ns, _ = perOp(20000, func() { buf = wire.AppendEncode(buf[:0], u16k) })
	rep.set("wire.encode_update_16k_ns", ns, 20000)

	enc := wire.Encode(u64)
	var derr error
	ns, allocs = perOp(200000, func() { _, derr = wire.Decode(enc) })
	if derr != nil {
		return derr
	}
	rep.set("wire.decode_update_64_ns", ns, 200000)
	rep.set("wire.decode_update_64_allocs", allocs, 200000)

	// What Primary.flushBatch does for a full slot: encode each update
	// into the reused buffer, frame it, finalize one datagram.
	fb := wire.NewFrameBuilder()
	updates := make([]*wire.Update, 16)
	for i := range updates {
		updates[i] = update64(uint32(i+1), 64)
	}
	flush := func() []byte {
		fb.Reset()
		buf = buf[:0]
		for _, u := range updates {
			start := len(buf)
			buf = wire.AppendEncode(buf, u)
			fb.AppendEncoded(buf[start:])
		}
		return fb.Datagram()
	}
	ns, _ = perOp(50000, func() { flush() })
	rep.set("wire.frame16_flush_ns", ns, 50000)
	frame := append([]byte(nil), flush()...)
	ns, allocs = perOp(50000, func() { _, derr = wire.Decode(frame) })
	if derr != nil {
		return derr
	}
	rep.set("wire.frame16_decode_ns", ns, 50000)
	rep.set("wire.frame16_decode_allocs", allocs, 50000)
	return nil
}

func layerXkernel(rep *report) error {
	tr := &sinkTransport{name: "a"}
	port, err := rtpb.NewStack(tr)
	if err != nil {
		return err
	}
	arrived := 0
	anchor := xkernel.UpperFunc(func(*xkernel.Message, xkernel.Addr) error { arrived++; return nil })
	if err := port.EnablePort(rtpb.RTPBPort, anchor); err != nil {
		return err
	}
	sess, err := port.OpenFrom(rtpb.RTPBPort, "b:7000")
	if err != nil {
		return err
	}
	payload := make([]byte, 64)
	var perr error
	ns, allocs := perOp(200000, func() { perr = sess.Push(xkernel.NewMessage(payload)) })
	if perr != nil {
		return perr
	}
	rep.set("xkernel.push_ns", ns, 200000)
	rep.set("xkernel.push_allocs", allocs, 200000)

	// The datagram a push produced is addressed to port 7000, which this
	// graph has enabled too: injected at the driver it pops up to anchor.
	tr.keep = true
	if err := sess.Push(xkernel.NewMessage(payload)); err != nil {
		return err
	}
	tr.keep = false
	dgram := tr.sent[0]
	ns, allocs = perOp(200000, func() { tr.recv("b", dgram) })
	if arrived < 200000 {
		return fmt.Errorf("pop: %d of 200000 datagrams reached the anchor", arrived)
	}
	rep.set("xkernel.pop_ns", ns, 200000)
	rep.set("xkernel.pop_allocs", allocs, 200000)

	ftr := &sinkTransport{name: "a"}
	fport, err := rtpb.NewStackMTU(ftr, clock.NewSim(), 1400)
	if err != nil {
		return err
	}
	arrived = 0
	if err := fport.EnablePort(rtpb.RTPBPort, anchor); err != nil {
		return err
	}
	fsess, err := fport.OpenFrom(rtpb.RTPBPort, "b:7000")
	if err != nil {
		return err
	}
	big := make([]byte, 16<<10)
	nsPush, allocsPush := perOp(20000, func() { perr = fsess.Push(xkernel.NewMessage(big)) })
	if perr != nil {
		return perr
	}
	rep.set("xkernel.frag_push_16k_ns", nsPush, 20000)
	ftr.keep = true
	if err := fsess.Push(xkernel.NewMessage(big)); err != nil {
		return err
	}
	ftr.keep = false
	frags := ftr.sent
	nsReasm, allocsReasm := perOp(20000, func() {
		for _, f := range frags {
			ftr.recv("b", f)
		}
	})
	if arrived < 20000 {
		return fmt.Errorf("frag: %d of 20000 messages reassembled from %d fragments", arrived, len(frags))
	}
	rep.set("xkernel.frag_reasm_16k_ns", nsReasm, 20000)
	rep.set("xkernel.frag_allocs_16k", allocsPush+allocsReasm, 20000)
	return nil
}

func layerUDP(rep *report) error {
	clkA, clkB := clock.NewReal(), clock.NewReal()
	defer clkA.Stop()
	defer clkB.Stop()
	a, err := netsim.NewUDP(clkA, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := netsim.NewUDP(clkB, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer b.Close()
	payload := make([]byte, 64)

	// Send cost alone: the destination is a socket nobody reads, so the
	// process-wide allocation count is the sender's.
	deaf, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer deaf.Close()
	var serr error
	ns, sendAllocs := perOp(20000, func() { serr = a.Send(deaf.LocalAddr().String(), payload) })
	if serr != nil {
		return serr
	}
	rep.set("netsim.udp_send_ns", ns, 20000)
	rep.set("netsim.udp_send_allocs", sendAllocs, 20000)

	var received atomic.Int64
	arrivedAt := make(chan time.Time, 1)
	timing := true
	b.SetReceiver(func(string, []byte) {
		received.Add(1)
		if timing {
			arrivedAt <- time.Now()
		}
	})
	var oneway samples
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if err := a.Send(b.LocalAddr(), payload); err != nil {
			return err
		}
		select {
		case at := <-arrivedAt:
			oneway.addDur(at.Sub(t0))
		case <-time.After(time.Second):
			return fmt.Errorf("datagram %d lost on loopback", i)
		}
	}
	rep.set("netsim.udp_oneway_us_p50", oneway.median(), len(oneway))

	onLoop(clkB, func() bool { timing = false; return true })
	received.Store(0)
	const n = 20000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := a.Send(b.LocalAddr(), payload); err != nil {
			return err
		}
	}
	// Delivery is over when the count has stopped moving for 50 ms.
	last, lastAt := int64(-1), time.Now()
	for {
		if got := received.Load(); got != last {
			last, lastAt = got, time.Now()
		} else if time.Since(lastAt) > 50*time.Millisecond {
			break
		}
		time.Sleep(time.Millisecond)
	}
	d := lastAt.Sub(t0)
	runtime.ReadMemStats(&after)
	rep.set("netsim.udp_dgram_per_s", float64(last)/d.Seconds(), int(last))
	rep.set("netsim.udp_drop_share", 1-float64(last)/n, n)
	if last > 0 {
		rep.set("netsim.udp_recv_allocs", (float64(after.Mallocs-before.Mallocs)-sendAllocs*n)/float64(last), int(last))
	}
	return nil
}

// simReplica builds a replica on a SimClock over a sinkTransport.
func simReplica(role core.Role, peer rtpb.Addr) (*clock.SimClock, *sinkTransport, *core.Replica, error) {
	clk := clock.NewSim()
	tr := &sinkTransport{name: role.String()}
	port, err := rtpb.NewStack(tr)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := core.Config{Clock: clk, Port: port, Ell: ell}
	if role == core.RoleBackup {
		cfg.Peer = peer
	}
	r, err := core.NewReplica(cfg, role)
	return clk, tr, r, err
}

// datagramsFor renders messages as the datagrams a primary's stack would
// put on the wire for a backup listening on the RTPB port.
func datagramsFor(msgs [][]byte) ([][]byte, error) {
	tr := &sinkTransport{name: "primary", keep: true}
	port, err := rtpb.NewStack(tr)
	if err != nil {
		return nil, err
	}
	sess, err := port.OpenFrom(rtpb.RTPBPort, "backup:7000")
	if err != nil {
		return nil, err
	}
	for _, m := range msgs {
		if err := sess.Push(xkernel.NewMessage(m)); err != nil {
			return nil, err
		}
	}
	return tr.sent, nil
}

func layerCore(rep *report) error {
	clk, _, p, err := simReplica(core.RolePrimary, "")
	if err != nil {
		return err
	}
	for i := 0; i < 32; i++ {
		if d := p.Register(objectSpec(i, 64)); !d.Accepted {
			return fmt.Errorf("register %d: %s", i, d.Reason)
		}
	}
	costs := core.DefaultCosts()
	data := make([]byte, 64)
	i := 0
	ns, allocs := perOp(100000, func() {
		p.ClientWrite(objectName(i%32), data, nil)
		clk.RunFor(costs.ClientOp + 64*costs.PerByte)
		i++
	})
	rep.set("core.client_write_ns", ns, 100000)
	rep.set("core.client_write_allocs", allocs, 100000)
	ns, allocs = perOp(200000, func() { p.Certificate("obj000") })
	rep.set("core.certificate_ns", ns, 200000)
	rep.set("core.certificate_allocs", allocs, 200000)

	var admit samples
	extra := objectSpec(32, 64)
	for k := 0; k < 200; k++ {
		t0 := time.Now()
		d := p.Register(extra)
		admit.addDur(time.Since(t0))
		if !d.Accepted {
			return fmt.Errorf("33rd object: %s", d.Reason)
		}
		if err := p.RemoveObject(extra.Name); err != nil {
			return err
		}
	}
	rep.set("core.register_n32_us", admit.median(), len(admit))

	// Apply path: pre-rendered datagrams with rising sequence numbers are
	// injected under a SimClock backup.
	_, btr, b, err := simReplica(core.RoleBackup, "primary:7000")
	if err != nil {
		return err
	}
	var regs [][]byte
	for i := 0; i < 16; i++ {
		s := objectSpec(i, 64)
		regs = append(regs, wire.Encode(&wire.Register{Epoch: 1, ObjectID: uint32(i + 1), Name: s.Name,
			Size: 64, Period: s.UpdatePeriod, DeltaP: s.Constraint.DeltaP, DeltaB: s.Constraint.DeltaB}))
	}
	dgrams, err := datagramsFor(regs)
	if err != nil {
		return err
	}
	for _, d := range dgrams {
		btr.recv("primary", d)
	}
	if b.Objects() != 16 {
		return fmt.Errorf("backup registered %d of 16 objects", b.Objects())
	}
	applied := 0
	b.OnApply = func(uint32, string, uint32, uint64, time.Time, time.Time) { applied++ }
	const n = 50000
	singles, frames := make([][]byte, n), make([][]byte, n/10)
	for i := range singles {
		u := update64(1, 64)
		u.Seq = uint64(i + 1)
		singles[i] = wire.Encode(u)
	}
	for i := range frames {
		var msgs []wire.Message
		for id := uint32(2); id <= 16; id++ {
			u := update64(id, 64)
			u.Seq = uint64(i + 1)
			msgs = append(msgs, u)
		}
		u := update64(1, 64)
		u.Seq = uint64(n + i + 1)
		frames[i] = wire.AppendFrame(nil, append(msgs, u)...)
	}
	if singles, err = datagramsFor(singles); err != nil {
		return err
	}
	if frames, err = datagramsFor(frames); err != nil {
		return err
	}
	k := 0
	ns, allocs = perOp(n-1, func() { btr.recv("primary", singles[k]); k++ })
	rep.set("core.apply_update_ns", ns, n-1)
	rep.set("core.apply_update_allocs", allocs, n-1)
	k = 0
	ns, _ = perOp(n/10-1, func() { btr.recv("primary", frames[k]); k++ })
	rep.set("core.apply_frame16_ns", ns, n/10-1)
	if want := n + 16*(n/10); applied != want {
		return fmt.Errorf("backup applied %d of %d injected updates", applied, want)
	}
	return nil
}

func layerDurable(rep *report) error {
	base, err := buildDir()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "layer-durable-")
	if err != nil {
		return err
	}
	forget := onExit(func() { os.RemoveAll(dir) })
	defer func() {
		os.RemoveAll(dir)
		forget()
	}()

	l, err := durable.Open(durable.Config{Dir: dir + "/append", NoFsync: true})
	if err != nil {
		return err
	}
	value := make([]byte, 64)
	seq := uint64(0)
	ns, allocs := perOp(50000, func() { seq++; l.AppendApply(1, 1, seq, int64(seq), value) })
	if err := l.Close(); err != nil {
		return err
	}
	rep.set("durable.append_ns", ns, 50000)
	rep.set("durable.append_allocs", allocs, 50000)

	// Writer throughput: a queue deep enough that nothing is shed, then
	// Sync waits for the writer to drain it.
	const records, size = 4096, 4096
	l, err = durable.Open(durable.Config{Dir: dir + "/writer", NoFsync: true, QueueDepth: records, SegmentBytes: 64 << 20})
	if err != nil {
		return err
	}
	big := make([]byte, size)
	t0 := time.Now()
	for i := 0; i < records; i++ {
		l.AppendApply(1, 1, uint64(i+1), int64(i+1), big)
	}
	if err := l.Sync(); err != nil {
		return err
	}
	d := time.Since(t0)
	if st := l.Stats(); st.Dropped > 0 {
		rep.note("durable writer shed %d of %d records; writer_mb_per_s counts the rest", st.Dropped, records)
	}
	rep.set("durable.writer_mb_per_s", float64(records*size)/1e6/d.Seconds(), records)

	objs := make([]durable.ObjectState, 32)
	for i := range objs {
		s := objectSpec(i, 64)
		objs[i] = durable.ObjectState{ID: uint32(i + 1), Name: s.Name, Size: 64, Period: int64(s.UpdatePeriod),
			DeltaP: int64(s.Constraint.DeltaP), DeltaB: int64(s.Constraint.DeltaB), HasData: true, Value: value, Version: 1}
	}
	var snap samples
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		l.Snapshot(1, objs)
		if err := l.Sync(); err != nil {
			return err
		}
		snap.addDurMs(time.Since(t0))
	}
	rep.set("durable.snapshot_ms_n32", snap.median(), len(snap))
	return l.Close()
}

func layerCtl(rep *report) error {
	clk := clock.NewReal()
	defer clk.Stop()
	tr, err := netsim.NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer tr.Close()
	port, err := rtpb.NewStack(tr)
	if err != nil {
		return err
	}
	type built struct {
		p   *core.Replica
		err error
	}
	bp := onLoop(clk, func() built {
		p, err := core.NewPrimary(core.Config{Clock: clk, Port: port, Ell: ell}) // no peer: ctl works standalone
		return built{p, err}
	})
	if bp.err != nil {
		return bp.err
	}
	srv, err := ctl.NewServer(clk, bp.p, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	c, err := ctl.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer c.Close()
	if reply, err := c.Do(fmt.Sprintf("REGISTER obj000 64 %v %v %v", declaredPeriod, declaredDeltaP, declaredDeltaB)); err != nil || !strings.HasPrefix(reply, "OK ") {
		return fmt.Errorf("REGISTER: %q %v", reply, err)
	}
	value := make([]byte, 64)
	var writes, reads samples
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 150; i++ {
		t0 := time.Now()
		if reply, err := c.Write("obj000", value); err != nil || !strings.HasPrefix(reply, "OK ") {
			return fmt.Errorf("WRITE: %q %v", reply, err)
		}
		writes.addDur(time.Since(t0))
	}
	runtime.ReadMemStats(&after)
	rep.set("ctl.write_rtt_us_p50", writes.median(), len(writes))
	rep.set("ctl.write_allocs", float64(after.Mallocs-before.Mallocs)/150, 150)
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if reply, err := c.Do("READ obj000"); err != nil || !strings.HasPrefix(reply, "OK ") {
			return fmt.Errorf("READ: %q %v", reply, err)
		}
		reads.addDur(time.Since(t0))
	}
	rep.set("ctl.read_rtt_us_p50", reads.median(), len(reads))
	onLoop(clk, func() bool { bp.p.Stop(); return true })
	return nil
}

func layerSched(rep *report) error {
	// 64 tasks at about 60 % utilisation, periods spread over a decade.
	ts := make(sched.TaskSet, 64)
	for i := range ts {
		period := time.Duration(10+i*3) * time.Millisecond
		ts[i] = sched.Task{Name: fmt.Sprintf("t%d", i), Period: period, WCET: period * 6 / 640}
	}
	feasible := false
	ns, _ := perOp(500, func() { feasible = sched.FeasibleRMExact(ts) })
	if !feasible {
		return fmt.Errorf("the 64-task set is not RM-feasible; the timing would measure an early exit")
	}
	rep.set("sched.rm_exact_n64_us", ns/1000, 500)
	return nil
}

func layerPromote(rep *report) error {
	var promote samples
	for k := 0; k < 20; k++ {
		c, err := rtpb.NewSimCluster(rtpb.SimClusterConfig{Seed: int64(k), Link: rtpb.LinkParams{Delay: time.Millisecond}})
		if err != nil {
			return err
		}
		for i := 0; i < 32; i++ {
			if d := c.Register(objectSpec(i, 64)); !d.Accepted {
				return fmt.Errorf("register %d: %s", i, d.Reason)
			}
			c.Primary.ClientWrite(objectName(i), make([]byte, 64), nil)
		}
		c.RunFor(300 * time.Millisecond)
		c.CrashPrimary()
		t0 := time.Now()
		if _, err := failover.Promote(c.Backup, failover.PromoteOptions{Service: "bench"}); err != nil {
			return err
		}
		promote.addDur(time.Since(t0))
		if c.Backup.Objects() != 32 {
			return fmt.Errorf("promoted replica serves %d of 32 objects", c.Backup.Objects())
		}
	}
	rep.set("failover.promote_us_n32", promote.median(), len(promote))
	return nil
}

type discardSink struct{ n *int }

func (d discardSink) Deliver(gateway.Frame) error { *d.n++; return nil }
func (discardSink) Close()                        {}

func layerGateway(rep *report) error {
	clk, _, p, err := simReplica(core.RolePrimary, "")
	if err != nil {
		return err
	}
	const sessions, objects = 1000, 8
	names := make([]string, objects)
	for i := range names {
		names[i] = objectName(i)
		if d := p.Register(objectSpec(i, 64)); !d.Accepted {
			return fmt.Errorf("register %d: %s", i, d.Reason)
		}
		p.ClientWrite(names[i], make([]byte, 64), nil)
	}
	clk.RunFor(10 * time.Millisecond)
	const period = 50 * time.Millisecond
	gw, err := gateway.New(gateway.Config{Clock: clk, Backend: gateway.ReplicaBackend{Primary: p}, BroadcastPeriod: period})
	if err != nil {
		return err
	}
	defer gw.Close()
	gw.Bind("all", names...)
	delivered := 0
	for i := 0; i < sessions; i++ {
		s, err := gw.Connect(discardSink{&delivered})
		if err != nil {
			return err
		}
		if err := gw.Subscribe(s, "all"); err != nil {
			return err
		}
	}
	const ticks = 20
	ns, allocs := perOp(ticks, func() { clk.RunFor(period) })
	if want := (ticks + 1) * sessions * objects; delivered != want {
		return fmt.Errorf("gateway delivered %d of %d frames", delivered, want)
	}
	rep.set("gateway.tick_us_s1000_o8", ns/1000, ticks)
	rep.set("gateway.tick_allocs", allocs, ticks)
	return nil
}
