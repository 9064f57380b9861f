package wire

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzWireRoundTrip throws arbitrary datagrams at Decode. The contract
// under test: Decode never panics on malformed input, and for any input
// it accepts, the wire format is canonical — re-encoding the decoded
// message reproduces the input byte-for-byte, and decoding the
// re-encoding yields the same kind. The seed corpus covers the messages
// the protocol exchanges steady-state (update, heartbeat,
// retransmission request) plus the control-plane messages, so the fuzzer
// starts from every body layout.
func FuzzWireRoundTrip(f *testing.F) {
	seeds := []Message{
		&Update{Epoch: 2, ObjectID: 7, Seq: 41, Version: time.Unix(1, 500).UnixNano(),
			AckRequested: true, Payload: []byte("pressure=17.3")},
		&Update{ObjectID: 1, Seq: 1, Payload: nil},
		&Ping{Seq: 9, From: RoleBackup},
		&PingAck{Seq: 9, From: RolePrimary},
		&RetransmitRequest{ObjectID: 7, LastSeq: 40},
		&Register{Epoch: 1, ObjectID: 3, Name: "altitude", Size: 64,
			Period: 40 * time.Millisecond, DeltaP: 50 * time.Millisecond, DeltaB: 250 * time.Millisecond,
			Critical: true},
		&RegisterReply{ObjectID: 3},
		&Order{Seq: 5, ObjectID: 1, Version: 77, Payload: []byte("x")},
		&OrderAck{Seq: 5},
		&UpdateAck{ObjectID: 7, Seq: 41},
		&ModeChange{Epoch: 2, ObjectID: 7, Mode: 3, Seq: 5, EffectiveBound: 250 * time.Millisecond},
		&JoinRequest{Epoch: 3},
		&JoinRequest{Epoch: 3, Observer: true},
		&ChainStatus{Epoch: 3, Depth: 2, Theta: 3 * time.Millisecond},
		&JoinAccept{Epoch: 3, Specs: []SpecEntry{
			{ObjectID: 1, Spec: Spec{Name: "pressure", Size: 64, Period: 20 * time.Millisecond,
				DeltaP: 25 * time.Millisecond, DeltaB: 200 * time.Millisecond}},
		}},
		&StateDigest{Epoch: 3, Entries: []DigestEntry{
			{ObjectID: 1, Epoch: 2, Seq: 40, Version: 99},
		}},
		&StateChunk{Epoch: 3, Xfer: 1, Chunk: 2, Final: true, Entries: []StateEntry{
			{ObjectID: 1, Seq: 41, Version: 100, Spec: Spec{Name: "pressure", Size: 64,
				Period: 20 * time.Millisecond}, Payload: []byte("17.3")},
		}},
		&StateChunkAck{Epoch: 3, Xfer: 1, Chunk: 2, Applied: 1},
		&Unregister{Epoch: 3, ObjectID: 7},
		&TimeSync{Seq: 9, From: RoleBackup, Originate: 946_684_800_123_000_000},
		&TimeSync{Seq: 9, From: RolePrimary, Originate: 946_684_800_123_000_000,
			Receive: 946_684_800_125_000_000, Transmit: 946_684_800_125_500_000},
		&Frame{Messages: []Message{
			&Update{Epoch: 2, ObjectID: 7, Seq: 41, Version: 99, Payload: []byte("batched")},
			&Update{Epoch: 2, ObjectID: 8, Seq: 12, Version: 100, Payload: []byte{}},
			&Ping{Seq: 3, From: RolePrimary},
		}},
		&Frame{},
	}
	for _, m := range seeds {
		f.Add(Encode(m))
	}
	// Malformed seeds: truncations, bad magic, bad version, unknown kind,
	// the retired kinds 7, 8 and 9 with the bodies they used to carry, an
	// oversize length prefix, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{0x52, 0xb0})
	f.Add([]byte{0x52, 0xb0, Version})
	f.Add([]byte{0x00, 0x00, Version, 3, 0, 0, 0, 0})
	f.Add([]byte{0x52, 0xb0, 9, 3})
	f.Add([]byte{0x52, 0xb0, Version, 0xee})
	f.Add([]byte{0x52, 0xb0, Version, 7, 0, 1, 'b', 0, 0, 0, 2})
	f.Add([]byte{0x52, 0xb0, Version, 8, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{0x52, 0xb0, Version, 9, 0, 0, 0, 2, 0, 0, 0, 2})
	f.Add([]byte{0x52, 0xb0, Version, 5, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0xff})
	f.Add(append(Encode(&OrderAck{Seq: 1}), 0))
	f.Add([]byte{0x52, 0xb0, Version, 3, 0, 0, 0, 1, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // malformed input is allowed, panicking on it is not
		}
		reencoded := Encode(m)
		if !bytes.Equal(reencoded, data) {
			t.Fatalf("decode/encode of kind %v is not canonical:\n in:  %x\n out: %x",
				m.WireKind(), data, reencoded)
		}
		again, err := Decode(reencoded)
		if err != nil {
			t.Fatalf("re-decoding kind %v failed: %v", m.WireKind(), err)
		}
		if again.WireKind() != m.WireKind() {
			t.Fatalf("kind changed across round-trip: %v != %v", again.WireKind(), m.WireKind())
		}
	})
}

// FuzzDecodeFrame targets the batched receive path. The contract: for
// arbitrary input DecodeFrame (the receive path's Decoder, on a copy)
// never panics and accepts exactly what Decode accepts; when it does, the
// batch it
// returns re-frames to a decodable equivalent (same count, byte-identical
// per-message encodings) and never contains a frame — nesting is a decode
// error, which is what bounds decode depth at two. The checked-in corpus
// (testdata/fuzz/FuzzDecodeFrame) seeds truncated length prefixes,
// zero-length frames, trailing garbage, and a nested frame alongside
// well-formed batches.
func FuzzDecodeFrame(f *testing.F) {
	upd := Encode(&Update{Epoch: 2, ObjectID: 7, Seq: 41, Version: 99, Payload: []byte("pressure=17.3")})
	ping := Encode(&Ping{Seq: 9, From: RoleBackup})

	// Well-formed batches: empty, single, mixed-kind.
	f.Add(AppendFrame(nil))
	f.Add(AppendFrame(nil, &Update{ObjectID: 1, Seq: 1, Payload: []byte("x")}))
	f.Add(AppendFrame(nil,
		&Update{Epoch: 1, ObjectID: 3, Seq: 2, Version: 5, Payload: []byte("abc")},
		&Ping{Seq: 1, From: RolePrimary},
		&UpdateAck{ObjectID: 3, Seq: 2}))
	// A bare (unframed) message: DecodeFrame's compatibility path.
	f.Add(upd)

	// Malformed: truncated count, truncated length prefix, length past
	// the end, zero-length sub-message, trailing garbage, nested frame,
	// count overshooting the messages present, 0xFFFFFFFF length.
	hdr := []byte{0x52, 0xb0, Version, uint8(KindFrame)}
	f.Add(hdr)
	f.Add(append(append([]byte{}, hdr...), 0))
	f.Add(append(append([]byte{}, hdr...), 0, 1, 0, 0))
	f.Add(append(append([]byte{}, hdr...), 0, 1, 0, 0, 0, 200, 1, 2, 3))
	f.Add(append(append([]byte{}, hdr...), 0, 1, 0, 0, 0, 0))
	f.Add(append(AppendFrame(nil, &Ping{Seq: 1}), 0xee))
	f.Add(AppendFrame(nil, &Frame{Messages: []Message{&Ping{Seq: 1}}}))
	f.Add(append(append([]byte{}, hdr...), 0, 2,
		0, 0, 0, byte(len(ping)))) // count says 2, bytes hold part of 1
	f.Add(append(append([]byte{}, hdr...), 0, 1, 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, err := DecodeFrame(data)
		if _, derr := Decode(data); (derr == nil) != (err == nil) {
			t.Fatalf("Decode says %v, the Decoder %v", derr, err)
		}
		if err != nil {
			return // malformed input is allowed, panicking on it is not
		}
		for _, m := range msgs {
			if m.WireKind() == KindFrame {
				t.Fatal("DecodeFrame returned a nested frame")
			}
		}
		reframed := AppendFrame(nil, msgs...)
		again, err := DecodeFrame(reframed)
		if err != nil {
			t.Fatalf("re-framing %d accepted messages failed to decode: %v", len(msgs), err)
		}
		if len(again) != len(msgs) {
			t.Fatalf("message count changed across re-frame: %d != %d", len(again), len(msgs))
		}
		for i := range msgs {
			if !bytes.Equal(Encode(again[i]), Encode(msgs[i])) {
				t.Fatalf("message %d not preserved across re-frame", i)
			}
		}
	})
}

// TestFuzzCorpusSpeaksVersion fails when a checked-in seed under
// testdata/fuzz starts with the RTPB magic but another Version: after a
// version bump such a seed stops at ErrBadVersion and no longer reaches
// the body it was kept for, so the corpus is re-stamped with the bump.
func TestFuzzCorpusSpeaksVersion(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if len(lines) != 2 || !ok || err != nil {
			t.Fatalf("%s: not a one-[]byte fuzz seed", f)
		}
		if len(b) >= 3 && b[0] == 0x52 && b[1] == 0xb0 && b[2] != Version {
			t.Errorf("%s: version %d, want %d", f, b[2], Version)
		}
	}
}
