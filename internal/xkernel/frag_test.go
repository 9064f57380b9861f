package xkernel

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"rtpb/internal/clock"
)

// fragPair builds hosts a and b with uport → frag → driver stacks on one
// fabric, and records what b's port 9 delivers.
func fragPair(t *testing.T, mtu int) (sess *Session, b *PortProtocol, got *[][]byte) {
	t.Helper()
	clk := clock.NewSim()
	fabric := fakeFabric{}
	pa, _ := newStack(t, fabric, "a", clk, mtu)
	b, _ = newStack(t, fabric, "b", clk, mtu)
	got = new([][]byte)
	b.EnablePort(9, UpperFunc(func(m *Message, from Addr) error {
		*got = append(*got, bytes.Clone(m.Bytes()))
		return nil
	}))
	sess, err := pa.OpenFrom(9, "b:9")
	if err != nil {
		t.Fatal(err)
	}
	return sess, b, got
}

// fragment renders one datagram of the fragmentation layer.
func fragment(id uint32, idx, count uint16, data []byte) []byte {
	var h [fragHeaderLen]byte
	binary.BigEndian.PutUint32(h[0:4], id)
	binary.BigEndian.PutUint16(h[4:6], idx)
	binary.BigEndian.PutUint16(h[6:8], count)
	return append(h[:], data...)
}

func TestFragSmallMessagePassesThrough(t *testing.T) {
	sess, _, got := fragPair(t, 100)
	if err := sess.Push(NewMessage([]byte("tiny"))); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || string((*got)[0]) != "tiny" {
		t.Fatalf("got %q", *got)
	}
}

func TestFragLargeMessageReassembles(t *testing.T) {
	sess, _, got := fragPair(t, 64)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 100) // 1600 B ≫ 64 B MTU
	if err := sess.Push(NewMessage(payload)); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d, want 1 reassembled message", len(*got))
	}
	if !bytes.Equal((*got)[0], payload) {
		t.Fatalf("payload corrupted: got %d bytes, want %d", len((*got)[0]), len(payload))
	}
}

func TestFragInterleavedMessagesFromSameSender(t *testing.T) {
	sess, _, got := fragPair(t, 32)
	m1 := bytes.Repeat([]byte("A"), 100)
	m2 := bytes.Repeat([]byte("B"), 100)
	sess.Push(NewMessage(m1))
	sess.Push(NewMessage(m2))
	if len(*got) != 2 || !bytes.Equal((*got)[0], m1) || !bytes.Equal((*got)[1], m2) {
		t.Fatalf("messages corrupted: %d delivered", len(*got))
	}
}

func TestFragIncompleteReassemblyTimesOut(t *testing.T) {
	clk := clock.NewSim()
	p, ep := newStack(t, nil, "b", clk, 32)
	f := p.down.(*fragmenter)
	deliveries := 0
	p.EnablePort(9, UpperFunc(func(*Message, Addr) error { deliveries++; return nil }))
	// Fragment 0 of 3; the rest never comes.
	ep.recv("ghost", fragment(1, 0, 3, []byte("partial")))
	if len(f.pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(f.pending))
	}
	clk.RunFor(fragTimeout + time.Millisecond)
	if len(f.pending) != 0 {
		t.Fatalf("pending after timeout = %d, want 0", len(f.pending))
	}
	if deliveries != 0 {
		t.Fatal("partial message delivered")
	}
}

func TestFragDuplicateFragmentIgnored(t *testing.T) {
	p, ep := newStack(t, nil, "b", clock.NewSim(), 32)
	deliveries := 0
	p.EnablePort(9, UpperFunc(func(*Message, Addr) error { deliveries++; return nil }))
	// The reassembled message must form a valid port header (src=0,
	// dst=9) so the port protocol above delivers it.
	ep.recv("x", fragment(7, 0, 2, []byte{0, 0}))
	ep.recv("x", fragment(7, 0, 2, []byte{0, 0})) // duplicate
	if deliveries != 0 {
		t.Fatal("incomplete message delivered after duplicate")
	}
	ep.recv("x", fragment(7, 1, 2, []byte{0, 9}))
	if deliveries != 1 {
		t.Fatalf("deliveries = %d, want 1", deliveries)
	}
}

func TestFragRejectsMalformedHeader(t *testing.T) {
	p, _ := newStack(t, nil, "b", clock.NewSim(), 32)
	f := p.down.(*fragmenter)
	if err := f.demux(FromWire([]byte{1, 2}), "x"); err == nil {
		t.Fatal("short fragment accepted")
	}
	if err := f.demux(FromWire(fragment(1, 0, 0, nil)), "x"); err == nil {
		t.Fatal("zero-count fragment accepted")
	}
	if err := f.demux(FromWire(fragment(1, 3, 3, nil)), "x"); err == nil {
		t.Fatal("fragment index past its count accepted")
	}
	if err := f.demux(FromWire(fragment(1, 0, 2, []byte("a"))), "x"); err != nil {
		t.Fatal(err)
	}
	if err := f.demux(FromWire(fragment(1, 1, 3, []byte("b"))), "x"); err == nil || len(f.pending) != 0 {
		t.Fatalf("count change mid-message: err %v, %d pending", err, len(f.pending))
	}
}

// TestFragControlMTU checks that the configured MTU bounds every
// fragment's payload, and that only the last fragment is shorter.
func TestFragControlMTU(t *testing.T) {
	p, ep := newStack(t, nil, "a", clock.NewSim(), 99)
	sess, err := p.OpenFrom(9, "b:9")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(NewMessage(make([]byte, 1000))); err != nil {
		t.Fatal(err)
	}
	if len(ep.sent) != 11 { // 1004 bytes with the port header
		t.Fatalf("%d fragments, want 11", len(ep.sent))
	}
	for i, d := range ep.sent {
		want := fragHeaderLen + 99
		if i == len(ep.sent)-1 {
			want = fragHeaderLen + 1004 - 10*99
		}
		if len(d.b) != want {
			t.Fatalf("fragment %d is %d bytes, want %d", i, len(d.b), want)
		}
	}
}

func TestFragRequiresClockAndBelow(t *testing.T) {
	if _, err := NewStack(&fakeEndpoint{host: "z"}, nil, 64); err == nil {
		t.Fatal("fragmenting stack without a clock accepted")
	}
	if _, err := NewStack(&fakeEndpoint{host: "z"}, nil, 0); err != nil {
		t.Fatalf("stack without fragmentation needs no clock: %v", err)
	}
	ep := &fakeEndpoint{host: "z"}
	p, err := NewStack(ep, clock.NewSim(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := p.down.(*fragmenter); !ok || f.down.tr != ep || f.port != p {
		t.Fatalf("fragmenter not between the port protocol and the driver over the transport: %#v", p.down)
	}
}

// TestFragHostileReassemblyBounded sends an MTU-1400 stack fragments that
// lie about their message: 1 000 one-byte fragments, each with its own id
// and a count that claims a message larger than maxMessage, then the same
// with the largest count the bound admits. Neither may leave the stack
// holding more than a few MiB, and an honest 1 MiB message still arrives
// byte-exact afterwards.
func TestFragHostileReassemblyBounded(t *testing.T) {
	const limit = 8 << 20
	sess, b, got := fragPair(t, 1400)
	f := b.down.(*fragmenter)
	ep := f.down.tr.(*fakeEndpoint)
	for _, count := range []uint16{0xFFFF, maxMessage / 1400} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for id := uint32(1); id <= 1000; id++ {
			ep.recv("liar", fragment(id, 0, count, []byte{0}))
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if held := int64(after.HeapAlloc) - int64(before.HeapAlloc); held > limit {
			t.Fatalf("count %d: 1000 lying fragments retain %d bytes, want at most %d", count, held, limit)
		}
		if len(f.pending) > maxPending {
			t.Fatalf("count %d: %d reassemblies pending, cap %d", count, len(f.pending), maxPending)
		}
		f.clk.(*clock.SimClock).RunFor(fragTimeout)
	}
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := sess.Push(NewMessage(payload)); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || !bytes.Equal((*got)[0], payload) {
		t.Fatalf("1 MiB message over MTU 1400: %d deliveries", len(*got))
	}
	if err := sess.Push(NewMessage(make([]byte, maxMessage+1))); err == nil {
		t.Fatal("push of a message over maxMessage accepted")
	}
}

// FuzzFragReassembly plays a peer that lies: it feeds an MTU-64 stack
// hand-made fragments from three sources, with colliding ids, duplicate
// and out-of-range indexes, counts that change mid-message or claim too
// much, sizes past the MTU, and reassembly timeouts. Each 4-byte record
// of the input is one step:
//
//	b0  source b0%3, or, when b0 ≥ 0xF0, advance the clock b1×20 ms
//	b1  message id
//	b2  count (b2>>4)%5+1 and index b2&0x0F; 0xFF claims count 0xFFFF
//	b3  fragment size 6+b3%100
//
// The stack must not panic, must stay within maxPending reassemblies of
// at most maxMessage bytes each, and may deliver only the in-order
// concatenation of fragments one (source, id) sent. The seeds in
// testdata/fuzz/FuzzFragReassembly cover each of those cases, and a flood
// of more new messages than maxPending.
func FuzzFragReassembly(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		clk := clock.NewSim()
		p, ep := newStack(t, nil, "b", clk, 64)
		fr := p.down.(*fragmenter)
		type part struct {
			src        string
			id         byte
			idx, count int
		}
		sent := map[part][][]byte{}
		type delivery struct {
			src     string
			payload []byte
		}
		var got []delivery
		p.EnablePort(9, UpperFunc(func(m *Message, from Addr) error {
			host, _, _ := splitHostPort(from)
			got = append(got, delivery{host, bytes.Clone(m.Bytes())})
			return nil
		}))
		for ; len(in) >= 4; in = in[4:] {
			b0, b1, b2, b3 := in[0], in[1], in[2], in[3]
			if b0 >= 0xF0 {
				clk.RunFor(time.Duration(b1) * 20 * time.Millisecond)
				continue
			}
			src := string(rune('x' + b0%3))
			count, idx := int(b2>>4)%5+1, int(b2&0x0F)
			if b2 == 0xFF {
				count = 0xFFFF
			}
			// Every fragment starts with a port header for port 9, its id
			// and its index, so whatever the stack reassembles, in whatever
			// order, reaches the port and says which message it claims to be.
			data := []byte{0, 0, 0, 9, b1, byte(idx)}
			for i := 0; i < int(b3)%100; i++ {
				data = append(data, byte(i)+b1)
			}
			key := part{src, b1, idx, count}
			sent[key] = append(sent[key], data)
			ep.recv(src, fragment(uint32(b1), uint16(idx), uint16(count), data))

			if len(fr.pending) > maxPending {
				t.Fatalf("%d reassemblies pending, cap %d", len(fr.pending), maxPending)
			}
			for _, buf := range fr.pending {
				if buf.size > maxMessage {
					t.Fatalf("a reassembly holds %d bytes, cap %d", buf.size, maxMessage)
				}
			}
		}
		for _, d := range got {
			whole := append([]byte{0, 0, 0, 9}, d.payload...)
			ok := false
			for count := 1; count <= 5 && !ok && len(whole) > 4; count++ {
				ok = concatenates(whole, count, func(idx int) [][]byte { return sent[part{d.src, whole[4], idx, count}] })
			}
			if !ok {
				t.Fatalf("delivered %x from %s is no concatenation of its fragments", d.payload, d.src)
			}
		}
	})
}

// concatenates reports whether whole is parts(0)[i0] ‖ … ‖ parts(count-1)[ik]
// for some choice of one candidate per index.
func concatenates(whole []byte, count int, parts func(idx int) [][]byte) bool {
	failed := map[[2]int]bool{} // (offset, index) pairs that lead nowhere
	var from func(off, idx int) bool
	from = func(off, idx int) bool {
		if idx == count {
			return off == len(whole)
		}
		if failed[[2]int{off, idx}] {
			return false
		}
		for _, c := range parts(idx) {
			if bytes.HasPrefix(whole[off:], c) && from(off+len(c), idx+1) {
				return true
			}
		}
		failed[[2]int{off, idx}] = true
		return false
	}
	return from(0, 0)
}
