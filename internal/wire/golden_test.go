package wire

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-format vectors")

// goldenVectors are the frozen wire encodings. Every release of the
// protocol must reproduce these files byte-for-byte: a diff here is a
// wire-compatibility break and must ship as a Version bump, never
// silently. Regenerate deliberately with
//
//	go test ./internal/wire -run TestGoldenVectors -update
func goldenVectors() []struct {
	name string
	msg  Message
} {
	return []struct {
		name string
		msg  Message
	}{
		{"update", &Update{Epoch: 2, ObjectID: 7, Seq: 41,
			Version: time.Date(2026, 1, 2, 3, 4, 5, 600, time.UTC).UnixNano(),
			Payload: []byte("pressure=17.3")}},
		{"update_ack_requested", &Update{Epoch: 3, ObjectID: 9, Seq: 1,
			Version: 1_700_000_000_000_000_000, AckRequested: true,
			Payload: []byte{0xde, 0xad, 0xbe, 0xef}}},
		{"update_empty_payload", &Update{Epoch: 1, ObjectID: 1, Seq: 1, Version: -5}},
		{"ping", &Ping{Seq: 9, From: RoleBackup}},
		{"register", &Register{Epoch: 1, ObjectID: 3, Name: "altitude", Size: 64,
			Period: 40 * time.Millisecond, DeltaP: 50 * time.Millisecond,
			DeltaB: 250 * time.Millisecond, Critical: true}},
		{"retransmit_request", &RetransmitRequest{ObjectID: 7, LastSeq: 40}},
		{"frame_empty", &Frame{}},
		{"frame_single", &Frame{Messages: []Message{
			&Update{Epoch: 2, ObjectID: 7, Seq: 41, Version: 99, Payload: []byte("one")},
		}}},
		{"time_sync_request", &TimeSync{Seq: 9, From: RoleBackup,
			Originate: 946_684_800_123_000_000}},
		{"time_sync_reply", &TimeSync{Seq: 9, From: RolePrimary,
			Originate: 946_684_800_123_000_000,
			Receive:   946_684_800_125_000_000,
			Transmit:  946_684_800_125_500_000}},
		{"frame_multi", &Frame{Messages: []Message{
			&Update{Epoch: 2, ObjectID: 7, Seq: 41, Version: 99, Payload: []byte("batched")},
			&Update{Epoch: 2, ObjectID: 8, Seq: 12, Version: 100, Payload: []byte{}},
			&Ping{Seq: 3, From: RolePrimary},
			&UpdateAck{ObjectID: 7, Seq: 41},
		}}},
		{"register_reply_accepted", &RegisterReply{ObjectID: 3}},
		{"ping_ack", &PingAck{Seq: 9, From: RolePrimary}},
		{"order", &Order{Seq: 5, ObjectID: 1, Version: 77, Payload: []byte("x=1")}},
		{"order_ack", &OrderAck{Seq: 5}},
		{"mode_change", &ModeChange{Epoch: 2, ObjectID: 7, Mode: 2, Seq: 5,
			EffectiveBound: 375 * time.Millisecond}},
		{"join_request", &JoinRequest{Epoch: 3}},
		{"join_request_observer", &JoinRequest{Epoch: 3, Observer: true}},
		{"join_accept", &JoinAccept{Epoch: 3, Specs: []SpecEntry{
			{ObjectID: 1, Spec: Spec{Name: "pressure", Size: 64, Period: 20 * time.Millisecond,
				DeltaP: 25 * time.Millisecond, DeltaB: 200 * time.Millisecond}},
			{ObjectID: 2, Spec: Spec{Name: "t", Size: 8, Period: time.Second,
				DeltaP: 2 * time.Second, DeltaB: 3 * time.Second, Critical: true}},
		}}},
		{"state_digest", &StateDigest{Epoch: 3, Entries: []DigestEntry{
			{ObjectID: 1, Epoch: 2, Seq: 40, Version: 99},
			{ObjectID: 2, Epoch: 3, Seq: 1, Version: -1},
		}}},
		{"state_chunk", &StateChunk{Epoch: 3, Xfer: 1, Chunk: 2, Final: true, Entries: []StateEntry{
			{ObjectID: 1, Seq: 41, Version: 100, Spec: Spec{Name: "pressure", Size: 64,
				Period: 20 * time.Millisecond, DeltaP: 25 * time.Millisecond,
				DeltaB: 200 * time.Millisecond, Critical: true}, Payload: []byte("17.3")},
			{ObjectID: 2, Seq: 7, Version: 101, Spec: Spec{Name: "t", Size: 8,
				Period: time.Second, DeltaP: 2 * time.Second, DeltaB: 3 * time.Second}},
		}}},
		{"state_chunk_ack", &StateChunkAck{Epoch: 3, Xfer: 1, Chunk: 2, Applied: 1}},
		{"unregister", &Unregister{Epoch: 3, ObjectID: 7}},
		{"chain_status", &ChainStatus{Epoch: 3, Depth: 2, Theta: 3 * time.Millisecond}},
	}
}

func TestGoldenVectors(t *testing.T) {
	for _, tc := range goldenVectors() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name+".bin")
			enc := Encode(tc.msg)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, enc, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden vector (run with -update to create): %v", err)
			}
			if !bytes.Equal(enc, want) {
				t.Fatalf("wire format changed for %s:\n got:  %x\n want: %x\n"+
					"this is a wire-compatibility break; if intended, bump Version and regenerate with -update",
					tc.name, enc, want)
			}
			// The frozen bytes must also decode and re-encode to themselves
			// (canonical decoding over cross-version input).
			m, err := Decode(want)
			if err != nil {
				t.Fatalf("golden vector no longer decodes: %v", err)
			}
			if re := Encode(m); !bytes.Equal(re, want) {
				t.Fatalf("golden vector not canonical after decode:\n got:  %x\n want: %x", re, want)
			}
		})
	}
}

// TestGoldenVectorsComplete fails when a vector file exists on disk that
// the table above no longer generates — deleting a message kind is as
// much a compatibility break as changing one — and when a message kind
// appears in no vector, bare or inside a frame, so every layout is
// pinned byte for byte.
func TestGoldenVectorsComplete(t *testing.T) {
	pinned := map[Kind]bool{}
	for _, tc := range goldenVectors() {
		pinned[tc.msg.WireKind()] = true
		if f, ok := tc.msg.(*Frame); ok {
			for _, m := range f.Messages {
				pinned[m.WireKind()] = true
			}
		}
	}
	for k := Kind(1); k != 0; k++ {
		if _, err := Decode([]byte{0x52, 0xb0, Version, uint8(k)}); !errors.Is(err, ErrUnknownKind) && !pinned[k] {
			t.Errorf("kind %v has no golden vector", k)
		}
	}

	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Skipf("no golden directory yet: %v", err)
	}
	known := map[string]bool{}
	for _, tc := range goldenVectors() {
		known[tc.name+".bin"] = true
	}
	for _, e := range entries {
		if !known[e.Name()] {
			t.Errorf("golden vector %s has no generating entry in goldenVectors()", e.Name())
		}
	}
}
