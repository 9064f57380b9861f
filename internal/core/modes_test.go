package core

import (
	"fmt"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

func TestWriteThroughTransmitsPerClientWrite(t *testing.T) {
	c := newTestCluster(t, clusterOpts{
		seed: 31,
		link: netsim.LinkParams{Delay: ms(2)},
		mutateP: func(cfg *Config) {
			cfg.Scheduling = ScheduleWriteThrough
		},
	})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(400)))
	sends := 0
	c.primary.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
	writes := 0
	stop := c.writeEvery("x", ms(40), func(i int) []byte { writes++; return []byte{byte(i)} })
	c.clk.RunFor(time.Second)
	stop.Stop()
	c.clk.RunFor(ms(50)) // let the final write's transmission drain
	if sends != writes {
		t.Fatalf("write-through sent %d updates for %d writes", sends, writes)
	}
}

func TestWriteThroughAdmissionUsesClientPeriod(t *testing.T) {
	cfg := testConfig()
	cfg.Scheduling = ScheduleWriteThrough
	a := newAdmission(cfg)
	// Loose external window (would give r = 172.5ms) but fast client
	// writes: the schedulability test must see the client period.
	_, d := a.admit(spec("x", ms(10), ms(50), ms(400)))
	if !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	if d.UpdatePeriod != ms(10) {
		t.Fatalf("write-through update period = %v, want client period 10ms", d.UpdatePeriod)
	}
}

func TestDisableGapRecoverySuppressesRetransmitRequests(t *testing.T) {
	run := func(disable bool) (gaps, retransmits int) {
		c := newTestCluster(t, clusterOpts{
			seed: 33,
			link: netsim.LinkParams{Delay: ms(2), LossProb: 0.3},
			mutateB: func(cfg *Config) {
				cfg.DisableGapRecovery = disable
			},
		})
		c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))
		c.backup.OnGap = func(uint32, uint64, uint64) { gaps++ }
		c.primary.OnRetransmitRequest = func(uint32) { retransmits++ }
		stop := c.writeEvery("x", ms(20), func(i int) []byte { return []byte{byte(i)} })
		defer stop.Stop()
		c.clk.RunFor(3 * time.Second)
		return gaps, retransmits
	}
	gaps, retransmits := run(false)
	if gaps == 0 || retransmits == 0 {
		t.Fatalf("baseline run: gaps=%d retransmits=%d, want both > 0", gaps, retransmits)
	}
	gaps, retransmits = run(true)
	if gaps == 0 {
		t.Fatal("ablated run detected no gaps at 30% loss")
	}
	if retransmits != 0 {
		t.Fatalf("ablated run still sent %d retransmit requests", retransmits)
	}
}

func TestSchedulingModeStrings(t *testing.T) {
	if ScheduleNormal.String() != "normal" ||
		ScheduleCompressed.String() != "compressed" ||
		ScheduleWriteThrough.String() != "write-through" {
		t.Fatal("SchedulingMode.String mismatch")
	}
	if SchedulingMode(77).String() != "SchedulingMode(77)" {
		t.Fatalf("unknown mode String() = %q", SchedulingMode(77).String())
	}
}

// discardTransport is a network that loses everything: what a sender does
// per datagram, without a receiver's share.
type discardTransport struct{}

func (discardTransport) Send(string, []byte) error                     { return nil }
func (discardTransport) SetReceiver(func(from string, payload []byte)) {}
func (discardTransport) LocalAddr() string                             { return "primary" }
func (discardTransport) Close() error                                  { return nil }

// One compressed-mode pump step on the modelled processor: the send itself
// and the submission of the next. A regression here shows as allocations
// per send, which the pump multiplies by its rate.
func TestPumpStepAllocs(t *testing.T) {
	clk := clock.NewSim()
	port, err := xkernel.NewStack(discardTransport{}, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(Config{Clock: clk, Port: port, Peer: "backup:7000", Ell: ms(1), Scheduling: ScheduleCompressed})
	if err != nil {
		t.Fatal(err)
	}
	s := spec("x", ms(40), ms(50), ms(400))
	if d := p.Register(s); !d.Accepted {
		t.Fatal(d.Reason)
	}
	p.ClientWrite("x", make([]byte, s.Size), nil)
	sends := 0
	p.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
	step := DefaultCosts().sendCost(s.Size)
	clk.RunFor(ms(10))
	sends = 0
	const steps = 1000
	allocs := testing.AllocsPerRun(steps, func() { clk.RunFor(step) })
	if sends < steps {
		t.Fatalf("%d pump sends in %d steps", sends, steps)
	}
	// The modelled processor's clock event: the pump's completion and the
	// processor's are built once, and the send itself goes out through
	// the replica's reused message.
	if allocs > 1 {
		t.Fatalf("a pump step allocates %v times, pinned at 1", allocs)
	}
}

// recordTransport keeps a copy of every datagram sent, by destination host.
type recordTransport struct{ sent map[string][][]byte }

func (r *recordTransport) Send(to string, payload []byte) error {
	r.sent[to] = append(r.sent[to], append([]byte(nil), payload...))
	return nil
}
func (*recordTransport) SetReceiver(func(from string, payload []byte)) {}
func (*recordTransport) LocalAddr() string                             { return "primary" }
func (*recordTransport) Close() error                                  { return nil }

// updatesIn decodes a recorded datagram past the port protocol's header:
// the objects of the updates it carries, and whether it was a frame.
func updatesIn(t *testing.T, dg []byte) (ids []uint32, framed bool) {
	t.Helper()
	m, err := wire.Decode(dg[4:])
	if err != nil {
		t.Fatal(err)
	}
	msgs := []wire.Message{m}
	if f, ok := m.(*wire.Frame); ok {
		msgs, framed = f.Messages, true
	}
	for _, m := range msgs {
		if u, ok := m.(*wire.Update); ok {
			ids = append(ids, u.ObjectID)
		}
	}
	return ids, framed
}

// newPumpPrimary starts a compressed-mode primary over tr toward peers on
// the modelled processor, with objects objects of size B written once.
func newPumpPrimary(t *testing.T, tr xkernel.Transport, objects, size int, peers ...xkernel.Addr) (*Replica, *clock.SimClock) {
	t.Helper()
	clk := clock.NewSim()
	port, err := xkernel.NewStack(tr, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(Config{Clock: clk, Port: port, Peers: peers, Ell: ms(1), Scheduling: ScheduleCompressed})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		s := spec(fmt.Sprintf("o%d", i), ms(40), ms(50), ms(400))
		s.Size = size
		if d := p.Register(s); !d.Accepted {
			t.Fatal(d.Reason)
		}
		p.ClientWrite(s.Name, make([]byte, s.Size), nil)
	}
	return p, clk
}

// On the modelled processor the pump sends one bare update per step, the
// discipline Figure 12's compressed series is measured under.
func TestModelledPumpSendsBareUpdates(t *testing.T) {
	rec := &recordTransport{sent: map[string][][]byte{}}
	_, clk := newPumpPrimary(t, rec, 3, 64, "backup:7000")
	clk.RunFor(ms(50))
	updates := 0
	for _, dg := range rec.sent["backup"] {
		ids, framed := updatesIn(t, dg)
		if framed {
			t.Fatalf("a modelled pump datagram is a frame of %d updates", len(ids))
		}
		updates += len(ids)
	}
	if updates < 100 {
		t.Fatalf("%d pump updates in 50 ms of 400 µs sends", updates)
	}
}

// A framed pump step whose first peer dies between Submit and flush: the
// survivor receives each update exactly once, the dead peer none. Entries
// sharing one targets array would frame every update after the first
// twice to the survivor, because flushBatch filters targets in place.
func TestFramedPumpSkipsPeerDeadBeforeFlush(t *testing.T) {
	rec := &recordTransport{sent: map[string][][]byte{}}
	p, clk := newPumpPrimary(t, rec, 3, 64, "b1:7000", "b2:7000")
	clk.RunFor(ms(5))
	s := p.collectPump(len(p.pumpOrder)) // what a live step submits
	if len(s.entries) != 3 {
		t.Fatalf("a step collected %d of 3 objects", len(s.entries))
	}
	p.SetPeerAlive("b1:7000", false)
	clear(rec.sent)
	p.flushBatch(s.entries)
	if n := len(rec.sent["b1"]); n != 0 {
		t.Fatalf("the dead peer received %d datagrams", n)
	}
	if n := len(rec.sent["b2"]); n != 1 {
		t.Fatalf("the live peer received %d datagrams, want one frame", n)
	}
	ids, framed := updatesIn(t, rec.sent["b2"][0])
	seen := map[uint32]int{}
	for _, id := range ids {
		seen[id]++
	}
	if !framed || len(ids) != 3 || len(seen) != 3 {
		t.Fatalf("the live peer's datagram carries objects %v (framed %v), want three once each", ids, framed)
	}
}

// A framed pump step of 16 objects reuses its slot, targets, encode
// buffer and outbound message: it allocates nothing, per object or per
// datagram.
func TestFramedPumpStepAllocs(t *testing.T) {
	p, clk := newPumpPrimary(t, discardTransport{}, 16, 64, "backup:7000")
	clk.RunFor(ms(5))
	sends := 0
	p.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
	const steps = 100
	allocs := testing.AllocsPerRun(steps, func() { p.flushBatch(p.collectPump(len(p.pumpOrder)).entries) })
	if sends != 16*(steps+1) {
		t.Fatalf("%d sends in %d framed steps of 16", sends, steps+1)
	}
	if allocs != 0 {
		t.Fatalf("a framed pump step of 16 allocates %v times, want 0", allocs)
	}
}

// A live step frames a whole round, within frameBytes: over eight 16 KiB
// objects (128 KiB a round) each step is as full as the budget allows,
// carries no object twice, and the next step resumes the round where the
// last one stopped.
func TestLivePumpStepKeepsFrameBudget(t *testing.T) {
	if n := len(wire.AppendEncode(nil, &wire.Update{})) + 4; n != frameEntryBytes {
		t.Fatalf("a framed update adds %d B besides its payload; frameEntryBytes is %d", n, frameEntryBytes)
	}
	const objects, size = 8, 16 << 10
	p, clk := newPumpPrimary(t, discardTransport{}, objects, size, "backup:7000")
	clk.RunFor(ms(5))
	start := p.pumpNext
	var sent []uint32
	for step := 0; step < 12; step++ {
		s := p.collectPump(len(p.pumpOrder))
		framed, seen := 0, map[uint32]bool{}
		for _, e := range s.entries {
			if seen[e.o.id] {
				t.Fatalf("step %d carries object %d twice", step, e.o.id)
			}
			seen[e.o.id] = true
			framed += len(e.o.value) + frameEntryBytes
			sent = append(sent, e.o.id)
		}
		if framed > frameBytes || framed+size+frameEntryBytes <= frameBytes {
			t.Fatalf("step %d frames %d objects in %d B; the budget is %d B", step, len(s.entries), framed, frameBytes)
		}
	}
	for i, id := range sent {
		if want := p.pumpOrder[(start+i)%objects]; id != want {
			t.Fatalf("update %d is of object %d, want %d: the round did not resume", i, id, want)
		}
	}
}
