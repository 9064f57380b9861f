package wire

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestRoundTripJoinRequest(t *testing.T) {
	in := &JoinRequest{Epoch: 4}
	out := roundTrip(t, in).(*JoinRequest)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestRoundTripJoinRequestObserver(t *testing.T) {
	in := &JoinRequest{Epoch: 4, Observer: true}
	out := roundTrip(t, in).(*JoinRequest)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestRoundTripChainStatus(t *testing.T) {
	in := &ChainStatus{Epoch: 7, Depth: 3, Theta: 2500 * time.Microsecond}
	out := roundTrip(t, in).(*ChainStatus)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestRoundTripJoinAccept(t *testing.T) {
	in := &JoinAccept{
		Epoch: 3,
		Specs: []SpecEntry{
			{ObjectID: 1, Spec: Spec{Name: "pressure", Size: 64, Period: 20 * time.Millisecond,
				DeltaP: 25 * time.Millisecond, DeltaB: 200 * time.Millisecond}},
			{ObjectID: 2, Spec: Spec{Name: "flow", Size: 32, Period: 40 * time.Millisecond,
				DeltaP: 50 * time.Millisecond, DeltaB: 400 * time.Millisecond, Critical: true}},
		},
	}
	out := roundTrip(t, in).(*JoinAccept)
	if out.Epoch != in.Epoch || !reflect.DeepEqual(in.Specs, out.Specs) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestRoundTripJoinAcceptEmpty(t *testing.T) {
	out := roundTrip(t, &JoinAccept{Epoch: 9}).(*JoinAccept)
	if len(out.Specs) != 0 {
		t.Fatalf("specs = %v, want none", out.Specs)
	}
}

func TestRoundTripStateDigest(t *testing.T) {
	in := &StateDigest{
		Epoch: 5,
		Entries: []DigestEntry{
			{ObjectID: 1, Epoch: 4, Seq: 100, Version: 123456789},
			{ObjectID: 2, Epoch: 5, Seq: 7, Version: -1},
		},
	}
	out := roundTrip(t, in).(*StateDigest)
	if out.Epoch != in.Epoch || !reflect.DeepEqual(in.Entries, out.Entries) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestRoundTripStateChunk(t *testing.T) {
	in := &StateChunk{
		Epoch: 6, Xfer: 2, Chunk: 3, Final: true,
		Entries: []StateEntry{
			{ObjectID: 1, Seq: 10, Version: 111, Spec: Spec{Name: "pressure", Size: 64,
				Period: 20 * time.Millisecond, DeltaP: 25 * time.Millisecond,
				DeltaB: 200 * time.Millisecond}, Payload: []byte("42psi")},
			{ObjectID: 2, Seq: 20, Version: -222, Payload: nil},
		},
	}
	out := roundTrip(t, in).(*StateChunk)
	if out.Epoch != in.Epoch || out.Xfer != in.Xfer || out.Chunk != in.Chunk || out.Final != in.Final {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Entries) != len(in.Entries) {
		t.Fatalf("entries = %d, want %d", len(out.Entries), len(in.Entries))
	}
	for i := range in.Entries {
		a, b := in.Entries[i], out.Entries[i]
		if a.ObjectID != b.ObjectID || a.Seq != b.Seq || a.Version != b.Version ||
			a.Name != b.Name || a.Size != b.Size || a.Period != b.Period ||
			a.DeltaP != b.DeltaP || a.DeltaB != b.DeltaB || !bytes.Equal(a.Payload, b.Payload) {
			t.Fatalf("entry %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestRoundTripStateChunkAck(t *testing.T) {
	in := &StateChunkAck{Epoch: 6, Xfer: 2, Chunk: 3, Applied: 5}
	out := roundTrip(t, in).(*StateChunkAck)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

// TestDecodeRejectsTruncatedRepairBodies truncates every new repair-cycle
// message at each possible length; Decode must reject all of them
// without panicking (the full encoding itself must decode).
func TestDecodeRejectsTruncatedRepairBodies(t *testing.T) {
	msgs := []Message{
		&JoinRequest{Epoch: 4},
		&JoinAccept{Epoch: 3, Specs: []SpecEntry{
			{ObjectID: 1, Spec: Spec{Name: "pressure", Size: 64, Period: 20 * time.Millisecond,
				DeltaP: 25 * time.Millisecond, DeltaB: 200 * time.Millisecond}},
		}},
		&StateDigest{Epoch: 5, Entries: []DigestEntry{
			{ObjectID: 1, Epoch: 4, Seq: 100, Version: 42},
		}},
		&StateChunk{Epoch: 6, Xfer: 1, Chunk: 0, Final: true, Entries: []StateEntry{
			{ObjectID: 1, Seq: 10, Version: 111, Spec: Spec{Name: "p", Size: 8}, Payload: []byte("x")},
		}},
		&StateChunkAck{Epoch: 6, Xfer: 1, Chunk: 0, Applied: 1},
		&ChainStatus{Epoch: 6, Depth: 2, Theta: time.Millisecond},
	}
	for _, m := range msgs {
		full := Encode(m)
		if _, err := Decode(full); err != nil {
			t.Fatalf("full %s does not decode: %v", m.WireKind(), err)
		}
		for cut := 0; cut < len(full); cut++ {
			if _, err := Decode(full[:cut]); err == nil {
				t.Fatalf("%s truncated to %d/%d bytes decoded without error",
					m.WireKind(), cut, len(full))
			}
		}
	}
}
