package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/cpu"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// logTransport keeps a copy of every datagram sent, in order.
type logTransport struct{ sent [][]byte }

func (l *logTransport) Send(_ string, payload []byte) error {
	l.sent = append(l.sent, append([]byte(nil), payload...))
	return nil
}
func (*logTransport) SetReceiver(func(from string, payload []byte)) {}
func (*logTransport) LocalAddr() string                             { return "primary" }
func (*logTransport) Close() error                                  { return nil }

// pumpRound drives one whole-round pump step as the live processor runs
// it (collect every object, then send), without its CPU submission;
// between runs between the two, where the step waits for the processor.
func pumpRound(p *Replica, between func()) {
	if s := p.collectPump(len(p.pumpOrder)); len(s.entries) > 0 {
		between()
		p.sendPump()
	}
}

// Whole-round pump steps re-send the last datagram with each Seq advanced
// whenever nothing changed, and rebuild it otherwise. Through a seeded
// interleaving of everything that may change a round or the builders
// under it, every datagram a step sends must equal what encoding its
// updates afresh builds, and every object's Seq must advance by one per
// update sent.
func TestPumpResendEqualsFreshEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	clk := clock.NewSim()
	tr := &logTransport{}
	port, err := xkernel.NewStack(tr, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The pump's replica starts as a backup and is promoted, as after a
	// takeover.
	p, err := NewReplica(Config{Clock: clk, Port: port, Ell: ms(1), Scheduling: ScheduleCompressed,
		Governor: GovernorConfig{Enable: true}}, RoleBackup)
	if err != nil {
		t.Fatal(err)
	}
	const objects = 6
	for i := 0; i < objects; i++ {
		p.adoptSpec(uint32(i+1), spec(fmt.Sprintf("o%d", i), ms(40), ms(50), ms(400)))
	}
	if err := p.Promote(2); err != nil {
		t.Fatal(err)
	}
	peers := []xkernel.Addr{"backup:7000", "backup2:7000"}
	if err := p.AddPeer(peers[0]); err != nil {
		t.Fatal(err)
	}
	p.pumpActive = true // the test drives the steps
	clientCost := p.cfg.Costs.clientCost(64)
	write := func(name string) {
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		p.ClientWrite(name, data, nil)
	}
	anyName := func() string { return p.pumpOrder[rng.Intn(len(p.pumpOrder))].spec.Name }
	for _, o := range p.pumpOrder {
		write(o.spec.Name)
	}
	clk.RunFor(ms(5))

	// Every update any path sends advances its object's Seq by one.
	type sent struct {
		id      uint32
		seq     uint64
		version time.Time
	}
	var round []sent
	lastSeq := map[uint32]uint64{}
	p.OnSend = func(id uint32, _ string, seq uint64, version time.Time) {
		if prev, ok := lastSeq[id]; ok && seq != prev+1 {
			t.Fatalf("object %d sent seq %d after %d", id, seq, prev)
		}
		lastSeq[id] = seq
		round = append(round, sent{id, seq, version})
	}
	resends, rebuilds := 0, 0
	step := func(between func()) {
		before, last := len(tr.sent), p.pumpLast.entries
		round = round[:0]
		pumpRound(p, between)
		if len(round) == 0 {
			return
		}
		if len(last) > 0 && len(p.pumpLast.entries) > 0 && &p.pumpLast.entries[0] == &last[0] {
			resends++
		} else {
			rebuilds++
		}
		fresh := wire.NewFrameBuilder()
		for _, s := range round {
			o := p.adm.objects[s.id]
			fresh.AppendEncoded(wire.Encode(&wire.Update{Epoch: p.epoch, ObjectID: s.id, Seq: s.seq,
				Version: s.version.UnixNano(), Payload: o.value}))
		}
		want, live := fresh.Datagram(), 0
		for _, pr := range p.peers {
			if pr.alive {
				live++
			}
		}
		if len(tr.sent)-before != live {
			t.Fatalf("%d datagrams for %d live peers", len(tr.sent)-before, live)
		}
		for _, dg := range tr.sent[before:] {
			if !bytes.Equal(dg[4:], want) { // past the port protocol's header
				t.Fatalf("sent %x\n fresh encode %x", dg[4:], want)
			}
		}
	}
	registered := objects
	for i := 0; i < 3000; i++ {
		switch rng.Intn(24) {
		case 0, 1, 2:
			write(anyName())
		case 3:
			// Two writes of one object at one instant carry one version;
			// a step between their installs sees the first.
			name := anyName()
			write(name)
			write(name)
			clk.RunFor(clientCost)
			step(func() {})
		case 4:
			registered++
			name := fmt.Sprintf("o%d", registered)
			if d := p.Register(spec(name, ms(40), ms(50), ms(400))); d.Accepted {
				write(name)
			}
		case 5:
			if len(p.pumpOrder) > 2 {
				if err := p.RemoveObject(anyName()); err != nil {
					t.Fatal(err)
				}
			}
		case 6, 7:
			pr := p.peers[rng.Intn(len(p.peers))]
			p.SetPeerAlive(pr.addr, !pr.alive)
			p.pumpActive = true
		case 8:
			if len(p.peers) == 1 {
				if err := p.AddPeer(peers[1]); err != nil {
					t.Fatal(err)
				}
			} else {
				p.RemovePeer(peers[1])
			}
			p.pumpActive = true
		case 9, 10:
			// A High retransmission between two steps rebuilds the
			// builders under the pump's last datagram.
			p.transmit(p.pumpOrder[rng.Intn(len(p.pumpOrder))], cpu.High)
		case 11:
			o := p.pumpOrder[rng.Intn(len(p.pumpOrder))]
			if p.gov.shed(o.id) {
				p.gov.setMode(o, ModeNormal)
			} else {
				p.gov.setMode(o, ModeShed)
			}
		case 12:
			p.SetEpoch(p.Epoch() + 1)
		}
		clk.RunFor(time.Duration(rng.Intn(3)) * ms(1))
		between := func() {}
		if rng.Intn(32) == 0 {
			// A peer dies while the step waits for the processor.
			between = func() { p.SetPeerAlive(p.peers[rng.Intn(len(p.peers))].addr, false) }
		}
		step(between)
	}
	if resends < 800 || rebuilds < 300 {
		t.Fatalf("%d re-sends and %d rebuilds: the interleaving does not exercise both", resends, rebuilds)
	}
	t.Logf("%d re-sends, %d rebuilds", resends, rebuilds)
}

// A whole-round pump step in steady state: 32 objects of 64 B, one peer,
// a network that loses everything; the step re-sends its round.
func BenchmarkPumpStep(b *testing.B) {
	p, clk := newPumpPrimary(b, discardTransport{}, 32, 64, "backup:7000")
	clk.RunFor(ms(10))
	p.pumpActive = true
	nothing := func() {}
	pumpRound(p, nothing)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pumpRound(p, nothing)
	}
}
