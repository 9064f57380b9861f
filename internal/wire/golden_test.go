package wire

import (
	"bytes"
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
			DeltaB: 250 * time.Millisecond}},
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
// much a compatibility break as changing one.
func TestGoldenVectorsComplete(t *testing.T) {
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
