package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// This file tests the receive half of the datagram path: what one inbound
// datagram costs a backup, that a frame is applied whole or not at all,
// and that no layer keeps a buffer the transport only lent it.

// injectTransport discards what is sent and lets a test deliver datagrams
// at the bottom of the stack, as a network would.
type injectTransport struct {
	recv func(from string, payload []byte)
}

func (*injectTransport) Send(string, []byte) error                          { return nil }
func (t *injectTransport) SetReceiver(fn func(from string, payload []byte)) { t.recv = fn }
func (*injectTransport) LocalAddr() string                                  { return "backup" }
func (*injectTransport) Close() error                                       { return nil }

// fromPrimary delivers an encoding as the primary's RTPB port sends it.
func (t *injectTransport) fromPrimary(enc []byte) { t.recv("primary", fromPort(enc)) }

// fromPort prefixes an encoding with the port header of RTPB to RTPB.
func fromPort(enc []byte) []byte {
	h := binary.BigEndian.AppendUint16(nil, RTPBPort)
	return append(binary.BigEndian.AppendUint16(h, RTPBPort), enc...)
}

// newInjectedBackup starts a backup over tr with objects 64-byte objects,
// ids 1..objects, registered by the primary at epoch 1.
func newInjectedBackup(t *testing.T, tr *injectTransport, objects int) *Replica {
	t.Helper()
	clk := clock.NewSim()
	port, err := xkernel.NewStack(tr, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackup(Config{Clock: clk, Port: port, Peer: "primary:7000", Ell: ms(1)})
	if err != nil {
		t.Fatal(err)
	}
	for id := 1; id <= objects; id++ {
		s := spec(fmt.Sprintf("o%d", id), ms(40), ms(50), ms(400))
		tr.fromPrimary(wire.Encode(&wire.Register{Epoch: 1, ObjectID: uint32(id), Name: s.Name,
			Size: uint32(s.Size), Period: s.UpdatePeriod, DeltaP: s.Constraint.DeltaP, DeltaB: s.Constraint.DeltaB}))
	}
	if b.Objects() != objects {
		t.Fatalf("backup registered %d of %d objects", b.Objects(), objects)
	}
	return b
}

// updateFrame frames one 64-byte update with sequence number seq for each
// object 1..objects.
func updateFrame(objects int, seq uint64) []byte {
	f := wire.NewFrameBuilder()
	for id := 1; id <= objects; id++ {
		f.AppendEncoded(wire.Encode(&wire.Update{Epoch: 1, ObjectID: uint32(id), Seq: seq, Version: int64(seq), Payload: make([]byte, 64)}))
	}
	return f.Datagram()
}

// A backup applies a 16-update frame without allocating: the driver and
// the decoder reuse their storage, the sender's address is joined once,
// and each update is applied from the datagram it arrived in.
func TestBackupAppliesFrameZeroAlloc(t *testing.T) {
	tr := &injectTransport{}
	b := newInjectedBackup(t, tr, 16)
	applied := 0
	b.OnApply = func(uint32, string, uint32, uint64, time.Time, time.Time) { applied++ }
	const runs = 100
	frames := make([][]byte, runs+1)
	for i := range frames {
		frames[i] = fromPort(updateFrame(16, uint64(i+1)))
	}
	k := 0
	allocs := testing.AllocsPerRun(runs, func() { tr.recv("primary", frames[k]); k++ })
	if applied != 16*(runs+1) {
		t.Fatalf("backup applied %d of %d updates", applied, 16*(runs+1))
	}
	if allocs != 0 {
		t.Fatalf("applying a 16-update frame allocates %v times, want 0", allocs)
	}
}

// A frame is applied whole or not at all: when its last message is of a
// retired kind, none of the updates ahead of it lands. A decoder that
// dispatched each message as it walked the frame would apply them.
func TestFrameWithBadLastMessageAppliesNothing(t *testing.T) {
	tr := &injectTransport{}
	b := newInjectedBackup(t, tr, 3)
	applied := 0
	b.OnApply = func(uint32, string, uint32, uint64, time.Time, time.Time) { applied++ }
	f := wire.NewFrameBuilder()
	for id := uint32(1); id <= 3; id++ {
		f.AppendEncoded(wire.Encode(&wire.Update{Epoch: 1, ObjectID: id, Seq: 1, Version: 1, Payload: []byte("v")}))
	}
	f.AppendEncoded(append(binary.BigEndian.AppendUint16(nil, wire.Magic), wire.Version, 8, 0, 0, 0, 1))
	tr.fromPrimary(f.Datagram())
	if applied != 0 {
		t.Fatalf("a frame ending in kind 8 applied %d updates, want 0", applied)
	}
	tr.fromPrimary(updateFrame(3, 1))
	if applied != 3 {
		t.Fatalf("the same updates framed alone applied %d times, want 3", applied)
	}
}

// scribbler is a Transport that overwrites every payload as soon as the
// other side is done with it: the sender's when Send returns, the
// receiver's when the receive callback returns (the ownership rule of
// xkernel.Transport). A layer that keeps a lent buffer replicates the
// scribble.
type scribbler struct{ xkernel.Transport }

func (s scribbler) Send(to string, payload []byte) error {
	err := s.Transport.Send(to, payload)
	scribble(payload)
	return err
}

func (s scribbler) SetReceiver(fn func(from string, payload []byte)) {
	s.Transport.SetReceiver(func(from string, payload []byte) {
		fn(from, payload)
		scribble(payload)
	})
}

func scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// scribbledHosts attaches one host per name to a fresh fabric through a
// scribbler, with a fragmenting stack when mtu > 0.
func scribbledHosts(t *testing.T, mtu int, names ...string) (*clock.SimClock, []*xkernel.PortProtocol) {
	t.Helper()
	clk := clock.NewSim()
	fab := netsim.New(clk, 1)
	if err := fab.SetDefaultLink(netsim.LinkParams{Delay: ms(1)}); err != nil {
		t.Fatal(err)
	}
	ports := make([]*xkernel.PortProtocol, len(names))
	for i, name := range names {
		ep, err := fab.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		if ports[i], err = xkernel.NewStack(scribbler{ep}, clk, mtu); err != nil {
			t.Fatal(err)
		}
	}
	return clk, ports
}

// writeAll registers objects of size bytes on p and writes each one; the
// k-th call gives every object a value no other call gives it.
func writeAll(t *testing.T, p *Replica, objects, size int, period time.Duration, k int) {
	t.Helper()
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("o%d", i)
		if _, ok := p.Spec(name); !ok {
			s := spec(name, period, period, 4*period)
			s.Size = size
			if d := p.Register(s); !d.Accepted {
				t.Fatalf("register %s: %s", name, d.Reason)
			}
		}
		v := make([]byte, size)
		for j := range v {
			v[j] = byte(i + j + k)
		}
		p.ClientWrite(name, v, nil)
	}
}

// requireSameImages fails unless got holds exactly want's value and
// version of each of the objects.
func requireSameImages(t *testing.T, want, got *Replica, objects int) {
	t.Helper()
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("o%d", i)
		wv, wt, wok := want.Value(name)
		gv, gt, gok := got.Value(name)
		if !wok || !gok || !bytes.Equal(wv, gv) || !wt.Equal(gt) {
			t.Fatalf("%s: replica holds %x at %v (ok %v), the primary %x at %v (ok %v)", name, gv, gt, gok, wv, wt, wok)
		}
	}
}

// Every buffer a transport lends is dead to the stack once the call that
// lent it returns: plain replication, a chunked join, a two-hop observer
// chain and a fragmenting pair all end with images equal to the
// primary's, though the transport scribbles over each payload it has
// finished with.
func TestLentBuffersAreNotKept(t *testing.T) {
	t.Run("replication", func(t *testing.T) {
		clk, ports := scribbledHosts(t, 0, "primary", "backup")
		p, err := NewPrimary(Config{Clock: clk, Port: ports[0], Peer: "backup:7000", Ell: ms(2)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBackup(Config{Clock: clk, Port: ports[1], Peer: "primary:7000", Ell: ms(2)})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			writeAll(t, p, 4, 64, ms(40), k)
			clk.RunFor(ms(30))
		}
		clk.RunFor(ms(200))
		requireSameImages(t, p, b, 4)
	})
	t.Run("chunked-join", func(t *testing.T) {
		clk, ports := scribbledHosts(t, 0, "primary", "backup")
		p, err := NewPrimary(Config{Clock: clk, Port: ports[0], Ell: ms(2)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBackup(Config{Clock: clk, Port: ports[1], Peer: "primary:7000", Ell: ms(2)})
		if err != nil {
			t.Fatal(err)
		}
		writeAll(t, p, 3*chunkEntries+1, 32, ms(500), 0)
		clk.RunFor(ms(5))
		if err := p.AddPeer("backup:7000"); err != nil {
			t.Fatal(err)
		}
		clk.RunFor(ms(500))
		if !b.Joined() {
			t.Fatal("the join never completed")
		}
		requireSameImages(t, p, b, 3*chunkEntries+1)
	})
	t.Run("observer-chain", func(t *testing.T) {
		clk, ports := scribbledHosts(t, 0, "primary", "obs1", "obs2")
		p, err := NewPrimary(Config{Clock: clk, Port: ports[0], Ell: ms(8)})
		if err != nil {
			t.Fatal(err)
		}
		var obs []*Replica
		for k := 1; k <= 2; k++ {
			o, err := NewObserver(Config{Clock: clk, Port: ports[k], Ell: ms(8),
				Peer: xkernel.JoinHostPort([]string{"primary", "obs1"}[k-1], RTPBPort)})
			if err != nil {
				t.Fatal(err)
			}
			o.Subscribe(ms(100))
			obs = append(obs, o)
		}
		for k := 0; k < 20; k++ {
			writeAll(t, p, 4, 64, ms(40), k)
			clk.RunFor(ms(50))
		}
		clk.RunFor(ms(500))
		for _, o := range obs {
			requireSameImages(t, p, o, 4)
		}
	})
	t.Run("fragmenting", func(t *testing.T) {
		clk, ports := scribbledHosts(t, 200, "primary", "backup")
		p, err := NewPrimary(Config{Clock: clk, Port: ports[0], Peer: "backup:7000", Ell: ms(2)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewBackup(Config{Clock: clk, Port: ports[1], Peer: "primary:7000", Ell: ms(2)})
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 10; k++ {
			writeAll(t, p, 2, 1<<10, ms(100), k)
			clk.RunFor(ms(60))
		}
		clk.RunFor(ms(500))
		requireSameImages(t, p, b, 2)
	})
}
