package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	in := &Frame{Messages: []Message{
		&Update{Epoch: 1, ObjectID: 3, Seq: 9, Version: 123, Payload: []byte("a")},
		&Ping{Seq: 4, From: RolePrimary},
		&Update{Epoch: 1, ObjectID: 5, Seq: 2, Version: 456, Payload: nil},
	}}
	out := roundTrip(t, in).(*Frame)
	if len(out.Messages) != 3 {
		t.Fatalf("decoded %d messages, want 3", len(out.Messages))
	}
	for i, sub := range in.Messages {
		// Compare canonical encodings: decode may yield an empty payload
		// where the input held nil, which is the same wire message.
		if !bytes.Equal(Encode(sub), Encode(out.Messages[i])) {
			t.Fatalf("message %d mismatch:\n in=%+v\nout=%+v", i, sub, out.Messages[i])
		}
	}
}

func TestFrameRoundTripEmpty(t *testing.T) {
	out := roundTrip(t, &Frame{}).(*Frame)
	if len(out.Messages) != 0 {
		t.Fatalf("decoded %d messages, want 0", len(out.Messages))
	}
}

func TestFrameEncodingIsCanonical(t *testing.T) {
	enc := AppendFrame(nil,
		&Update{ObjectID: 1, Seq: 1, Version: 1, Payload: []byte("x")},
		&UpdateAck{ObjectID: 1, Seq: 1},
	)
	m, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(Encode(m), enc) {
		t.Fatalf("frame re-encoding differs:\n in:  %x\n out: %x", enc, Encode(m))
	}
}

func TestDecodeFrameBareMessage(t *testing.T) {
	// A non-frame datagram decodes as a one-message batch, so receive
	// loops handle framed and legacy unframed traffic identically.
	enc := Encode(&Update{ObjectID: 7, Seq: 1, Version: 1, Payload: []byte("v")})
	msgs, err := DecodeFrame(enc)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d messages, want 1", len(msgs))
	}
	if u, ok := msgs[0].(*Update); !ok || u.ObjectID != 7 {
		t.Fatalf("decoded %+v, want the update back", msgs[0])
	}
}

func TestDecodeFrameRejectsNesting(t *testing.T) {
	inner := AppendFrame(nil, &Ping{Seq: 1})
	outer := Encode(&Frame{Messages: []Message{mustDecode(t, inner)}})
	if _, err := Decode(outer); !errors.Is(err, ErrNestedFrame) {
		t.Fatalf("nested frame decoded with err=%v, want ErrNestedFrame", err)
	}
}

func mustDecode(t *testing.T, b []byte) Message {
	t.Helper()
	m, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return m
}

func TestDecodeFrameTruncations(t *testing.T) {
	enc := AppendFrame(nil,
		&Update{ObjectID: 1, Seq: 1, Version: 1, Payload: []byte("abcdef")},
		&Ping{Seq: 2},
	)
	// Every proper prefix must fail cleanly, never panic or succeed.
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	// Trailing garbage is rejected (strict framing).
	if _, err := Decode(append(append([]byte{}, enc...), 0xff)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeFrameForgedLength(t *testing.T) {
	// A length prefix pointing past the datagram must fail as truncated,
	// including the 0xFFFFFFFF value that would wrap a 32-bit int.
	for _, forged := range []uint32{5, 1 << 20, 0xFFFFFFFF} {
		b := []byte{0x52, 0xb0, Version, uint8(KindFrame), 0, 1,
			byte(forged >> 24), byte(forged >> 16), byte(forged >> 8), byte(forged)}
		if _, err := Decode(b); !errors.Is(err, ErrTruncated) {
			t.Fatalf("forged length %d: err=%v, want ErrTruncated", forged, err)
		}
	}
}

func TestFrameBuilderDatagramShapes(t *testing.T) {
	b := NewFrameBuilder()
	if b.Datagram() != nil {
		t.Fatal("empty builder produced a datagram")
	}

	// One message: the bare encoding, byte-identical to the unframed
	// format — single-update slots keep wire compatibility.
	u := &Update{ObjectID: 1, Seq: 1, Version: 1, Payload: []byte("v")}
	b.AppendEncoded(Encode(u))
	if got, want := b.Datagram(), Encode(u); !bytes.Equal(got, want) {
		t.Fatalf("single-message datagram differs from bare encoding:\n got:  %x\n want: %x", got, want)
	}

	// Two messages: a proper frame carrying both.
	b.Reset()
	a := &UpdateAck{ObjectID: 1, Seq: 1}
	b.AppendEncoded(Encode(u))
	b.AppendEncoded(Encode(a))
	if b.count != 2 {
		t.Fatalf("count = %d, want 2", b.count)
	}
	msgs, err := DecodeFrame(b.Datagram())
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(msgs) != 2 || !reflect.DeepEqual(msgs[0], u) || !reflect.DeepEqual(msgs[1], a) {
		t.Fatalf("decoded %+v, want [%+v %+v]", msgs, u, a)
	}
}

func TestFrameBuilderAppendEncoded(t *testing.T) {
	u := &Update{Epoch: 3, ObjectID: 9, Seq: 7, Version: 42, Payload: []byte("pv")}
	enc := Encode(u)
	b := NewFrameBuilder()
	b.AppendEncoded(enc)
	b.AppendEncoded(enc)
	msgs, err := DecodeFrame(b.Datagram())
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if len(msgs) != 2 || !reflect.DeepEqual(msgs[0], u) || !reflect.DeepEqual(msgs[1], u) {
		t.Fatalf("decoded %+v, want the update twice", msgs)
	}
}

// randomUpdate draws an arbitrary update message.
func randomUpdate(rng *rand.Rand) *Update {
	payload := make([]byte, rng.Intn(64))
	rng.Read(payload)
	return &Update{
		Epoch:        uint32(rng.Intn(8)),
		ObjectID:     uint32(rng.Intn(16)),
		Seq:          rng.Uint64() % 1000,
		Version:      rng.Int63(),
		AckRequested: rng.Intn(4) == 0,
		Payload:      payload,
	}
}

// TestFrameBatchRoundTripProperty: for any random batch of updates,
// frame-encode → frame-decode yields the same message sequence, in order.
func TestFrameBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x52b0))
	prop := func() bool {
		n := rng.Intn(40)
		batch := make([]Message, n)
		for i := range batch {
			batch[i] = randomUpdate(rng)
		}
		msgs, err := DecodeFrame(AppendFrame(nil, batch...))
		if err != nil || len(msgs) != n {
			return false
		}
		for i := range batch {
			if !reflect.DeepEqual(msgs[i], batch[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFrameCoalescingProperty mirrors the send path's drop-oldest
// invariant at the wire layer: pushing a random write sequence through a
// coalescing queue (newest state wins per object, FIFO across objects —
// the sendQueue discipline) and framing one batch per drain yields frames
// in which every object appears at most once, carrying exactly the
// freshest payload written before the drain.
func TestFrameCoalescingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prop := func() bool {
		// Random write burst: object id → latest payload, FIFO queue of
		// distinct pending ids.
		latest := map[uint32][]byte{}
		var fifo []uint32
		writes := 1 + rng.Intn(120)
		for i := 0; i < writes; i++ {
			id := uint32(rng.Intn(10))
			payload := make([]byte, 1+rng.Intn(32))
			rng.Read(payload)
			if _, queued := latest[id]; !queued {
				fifo = append(fifo, id)
			}
			latest[id] = payload // coalesce: newest state wins
		}
		// Drain: one frame carries the pending set, freshest state each.
		b := NewFrameBuilder()
		var seq uint64
		for _, id := range fifo {
			seq++
			b.AppendEncoded(Encode(&Update{ObjectID: id, Seq: seq, Payload: latest[id]}))
		}
		msgs, err := DecodeFrame(b.Datagram())
		if err != nil || len(msgs) != len(fifo) {
			return false
		}
		seen := map[uint32]bool{}
		for i, m := range msgs {
			u, ok := m.(*Update)
			if !ok {
				return false
			}
			if seen[u.ObjectID] {
				return false // an object must not ride one frame twice
			}
			seen[u.ObjectID] = true
			if u.ObjectID != fifo[i] || !bytes.Equal(u.Payload, latest[u.ObjectID]) {
				return false // must be exactly the freshest write, in FIFO order
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// One Decoder serves datagram after datagram: each result equals what
// Decode gives for the same bytes, whatever it decoded before, and a
// malformed datagram yields no messages.
func TestDecoderMatchesDecode(t *testing.T) {
	u := func(id uint32, payload string) *Update {
		return &Update{Epoch: 1, ObjectID: id, Seq: uint64(id), Version: 7, Payload: []byte(payload)}
	}
	datagrams := [][]byte{
		AppendFrame(nil, u(1, "one"), &Ping{Seq: 2, From: RoleBackup}, u(2, "")),
		Encode(u(3, "bare")),
		AppendFrame(nil, u(4, "a"), u(5, "bb"), u(6, "ccc"), u(7, "dddd"), &UpdateAck{ObjectID: 4, Seq: 4}),
		append(AppendFrame(nil, u(8, "trailing")), 0),
		AppendFrame(nil),
		Encode(&Ping{Seq: 9, From: RolePrimary}),
		AppendFrame(nil, u(10, "again")),
	}
	var d Decoder
	for i, dg := range datagrams {
		var want []Message
		m, err := Decode(dg)
		if f, ok := m.(*Frame); ok {
			want = f.Messages
		} else if err == nil {
			want = []Message{m}
		}
		got, gerr := d.Decode(dg)
		if (gerr == nil) != (err == nil) || len(got) != len(want) {
			t.Fatalf("datagram %d: Decoder gives %d messages, err %v; Decode %d, err %v", i, len(got), gerr, len(want), err)
		}
		for j := range want {
			if !reflect.DeepEqual(got[j], want[j]) {
				t.Fatalf("datagram %d message %d: Decoder gives %+v, Decode %+v", i, j, got[j], want[j])
			}
		}
	}
}
