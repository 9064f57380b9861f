package active

import (
	"fmt"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
	"rtpb/internal/topo"
	"rtpb/internal/xkernel"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

type activeCluster struct {
	clk       *clock.SimClock
	net       *netsim.Network
	sequencer *Sequencer
	members   []*Member
}

func newActiveCluster(t *testing.T, nMembers int, link netsim.LinkParams, seed int64) *activeCluster {
	t.Helper()
	names := []string{"seq"}
	var memberAddrs []xkernel.Addr
	for i := 0; i < nMembers; i++ {
		names = append(names, fmt.Sprintf("m%d", i))
		memberAddrs = append(memberAddrs, xkernel.Addr(names[i+1]+":7100"))
	}
	f, hs, err := topo.Build(seed, link, names...)
	if err != nil {
		t.Fatal(err)
	}
	clk := f.Clock
	seq, err := NewSequencer(Config{Clock: clk, Port: hs[0].Port, Members: memberAddrs})
	if err != nil {
		t.Fatal(err)
	}
	ac := &activeCluster{clk: clk, net: f.Net, sequencer: seq}
	for _, h := range hs[1:] {
		m, err := NewMember(Config{Clock: clk, Port: h.Port, Sequencer: "seq:7100"})
		if err != nil {
			t.Fatal(err)
		}
		ac.members = append(ac.members, m)
	}
	return ac
}

func TestAtomicOrderedDelivery(t *testing.T) {
	ac := newActiveCluster(t, 3, netsim.LinkParams{Delay: ms(2)}, 1)
	id, err := ac.sequencer.Register("x")
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	ac.sequencer.ClientWrite("x", []byte("v1"), func(_ time.Duration, err error) {
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		committed++
	})
	ac.clk.RunFor(ms(50))
	if committed != 1 {
		t.Fatalf("committed = %d, want 1", committed)
	}
	for i, m := range ac.members {
		if o := m.objects[id]; o == nil || string(o.value) != "v1" {
			t.Fatalf("member %d holds %+v", i, o)
		}
		if m.applied != 1 {
			t.Fatalf("member %d applied = %d", i, m.applied)
		}
	}
	if len(ac.sequencer.pending) != 0 {
		t.Fatalf("pending = %d after commit", len(ac.sequencer.pending))
	}
}

func TestCommitWaitsForAllMembers(t *testing.T) {
	ac := newActiveCluster(t, 2, netsim.LinkParams{Delay: ms(2)}, 2)
	ac.sequencer.Register("x")
	// Partition one member: the write must NOT commit.
	ac.net.Partition("seq", "m1")
	done := false
	ac.sequencer.ClientWrite("x", []byte("v"), func(time.Duration, error) { done = true })
	ac.clk.RunFor(500 * time.Millisecond)
	if done {
		t.Fatal("write committed without all member acks")
	}
	if len(ac.sequencer.pending) != 1 {
		t.Fatalf("pending = %d", len(ac.sequencer.pending))
	}
	// Heal: retransmission drives it to commit.
	ac.net.Heal("seq", "m1")
	ac.clk.RunFor(500 * time.Millisecond)
	if !done {
		t.Fatal("write never committed after heal")
	}
}

func TestTotalOrderUnderJitter(t *testing.T) {
	// Heavy jitter reorders datagrams; members must still apply in
	// sequence order.
	ac := newActiveCluster(t, 2, netsim.LinkParams{Delay: ms(1), Jitter: ms(8)}, 3)
	id, _ := ac.sequencer.Register("x")
	// Order k carries payload k−1, so a member that applied k orders in
	// sequence holds k−1.
	m := ac.members[0]
	inOrder := func() bool {
		return m.applied == 0 || m.objects[id].value[0] == byte(m.applied-1)
	}
	for i := 0; i < 30; i++ {
		payload := []byte{byte(i)}
		ac.sequencer.ClientWrite("x", payload, nil)
		ac.clk.RunFor(ms(5))
		if !inOrder() {
			t.Fatalf("member applied orders out of sequence: %d applied, value %v", m.applied, m.objects[id].value)
		}
	}
	ac.clk.RunFor(time.Second)
	if !inOrder() {
		t.Fatal("member applied orders out of sequence")
	}
	if m.applied != 30 {
		t.Fatalf("applied %d orders, want 30", m.applied)
	}
	v := ac.members[1].objects[id].value
	if len(v) != 1 || v[0] != 29 {
		t.Fatalf("final value = %v", v)
	}
}

func TestLossInflatesActiveResponseTime(t *testing.T) {
	// The motivating contrast with RTPB: under loss, atomic delivery
	// turns drops into client latency.
	measure := func(loss float64) time.Duration {
		ac := newActiveCluster(t, 2, netsim.LinkParams{Delay: ms(2), LossProb: loss}, 4)
		ac.sequencer.Register("x")
		var worst time.Duration
		for i := 0; i < 50; i++ {
			ac.sequencer.ClientWrite("x", []byte{byte(i)}, func(lat time.Duration, err error) {
				if err == nil && lat > worst {
					worst = lat
				}
			})
			ac.clk.RunFor(ms(40))
		}
		ac.clk.RunFor(time.Second)
		return worst
	}
	clean := measure(0)
	lossy := measure(0.3)
	if lossy <= clean {
		t.Fatalf("worst latency under loss (%v) not above lossless (%v)", lossy, clean)
	}
	// Lossless atomic delivery still pays a full round trip ≥ 2·delay.
	if clean < 4*time.Millisecond {
		t.Fatalf("lossless commit latency %v below one round trip", clean)
	}
}

func TestDuplicateOrdersAckedAndIgnored(t *testing.T) {
	ac := newActiveCluster(t, 1, netsim.LinkParams{Delay: ms(2), DuplicateProb: 1}, 5)
	id, _ := ac.sequencer.Register("x")
	done := false
	ac.sequencer.ClientWrite("x", []byte("v"), func(time.Duration, error) { done = true })
	ac.clk.RunFor(200 * time.Millisecond)
	if !done {
		t.Fatal("write did not commit under duplication")
	}
	if applies := ac.members[0].applied; applies != 1 {
		t.Fatalf("applies = %d, want 1 (duplicates ignored)", applies)
	}
	if v := ac.members[0].objects[id].value; string(v) != "v" {
		t.Fatalf("value = %q", v)
	}
}

func TestSequencerErrors(t *testing.T) {
	ac := newActiveCluster(t, 1, netsim.LinkParams{Delay: ms(2)}, 6)
	gotErr := false
	ac.sequencer.ClientWrite("ghost", []byte("v"), func(_ time.Duration, err error) {
		gotErr = err != nil
	})
	ac.clk.RunFor(ms(10))
	if !gotErr {
		t.Fatal("write to unregistered object succeeded")
	}
	// Registering twice returns the same id.
	id1, _ := ac.sequencer.Register("x")
	id2, _ := ac.sequencer.Register("x")
	if id1 != id2 {
		t.Fatalf("duplicate registration ids %d vs %d", id1, id2)
	}
	ac.sequencer.Stop()
	ac.sequencer.Stop() // idempotent
	if _, err := ac.sequencer.Register("y"); err == nil {
		t.Fatal("stopped sequencer accepted registration")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSequencer(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	f, hs, err := topo.Build(9, netsim.LinkParams{}, "solo")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSequencer(Config{Clock: f.Clock, Port: hs[0].Port}); err == nil {
		t.Fatal("sequencer without members accepted")
	}
	if _, err := NewMember(Config{Clock: f.Clock, Port: hs[0].Port}); err == nil {
		t.Fatal("member without sequencer address accepted")
	}
}
