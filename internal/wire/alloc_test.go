package wire

import (
	"testing"
	"time"
)

// The allocation wall: the steady-state update path — append-style encode
// and the per-peer frame flush — must not allocate. These assertions are
// what lets CI fail a codec edit that quietly reintroduces a per-message
// allocation, the regression the ROADMAP's throughput ceiling traces to.

// benchUpdate is a representative steady-state update (64-byte payload,
// the EXPERIMENTS.md baseline object size).
func benchUpdate() *Update {
	return &Update{
		Epoch:    2,
		ObjectID: 7,
		Seq:      41,
		Version:  1_700_000_000_000_000_000,
		Payload: []byte("0123456789abcdef0123456789abcdef" +
			"0123456789abcdef0123456789abcdef"),
	}
}

func TestAppendEncodeUpdateZeroAlloc(t *testing.T) {
	u := benchUpdate()
	buf := AppendEncode(nil, u) // warm: grow the buffer once
	allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendEncode(buf[:0], u)
	})
	if allocs != 0 {
		t.Fatalf("AppendEncode allocates %v times per op, want 0", allocs)
	}
}

func TestFrameFlushZeroAlloc(t *testing.T) {
	u := benchUpdate()
	enc := Encode(u)
	b := NewFrameBuilder()
	// Warm: one full flush grows the builder to steady-state capacity.
	for i := 0; i < 16; i++ {
		b.AppendEncoded(enc)
	}
	_ = b.Datagram()
	allocs := testing.AllocsPerRun(1000, func() {
		b.Reset()
		for i := 0; i < 16; i++ {
			b.AppendEncoded(enc)
		}
		if b.Datagram() == nil {
			t.Fatal("flush produced no datagram")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame flush allocates %v times per op, want 0", allocs)
	}
}

// The receive side: a Decoder that has grown decodes a 16-update frame,
// and a bare update, without allocating.
func TestDecoderZeroAlloc(t *testing.T) {
	enc := Encode(benchUpdate())
	fb := NewFrameBuilder()
	for i := 0; i < 16; i++ {
		fb.AppendEncoded(enc)
	}
	frame := fb.Datagram()
	var d Decoder
	allocs := testing.AllocsPerRun(1000, func() {
		if msgs, err := d.Decode(frame); err != nil || len(msgs) != 16 {
			t.Fatalf("frame: %d messages, err %v", len(msgs), err)
		}
		if msgs, err := d.Decode(enc); err != nil || len(msgs) != 1 {
			t.Fatalf("bare update: %d messages, err %v", len(msgs), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Decoder allocates %v times per frame and update, want 0", allocs)
	}
}

// BenchmarkAppendEncodeUpdate is the hot-path benchmark CI pins at
// 0 allocs/op: one steady-state update encoded into a reused buffer.
func BenchmarkAppendEncodeUpdate(b *testing.B) {
	u := benchUpdate()
	buf := AppendEncode(nil, u)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], u)
	}
}

// BenchmarkEncodeUpdate is the allocating baseline AppendEncode replaces;
// it exists so the benchmem diff (1 alloc/op vs 0) stays visible.
func BenchmarkEncodeUpdate(b *testing.B) {
	u := benchUpdate()
	b.SetBytes(int64(len(Encode(u))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode(u)
	}
}

// BenchmarkFrameFlush measures one steady-state transmission slot: reset,
// frame 16 pre-encoded updates, finalize the datagram. CI pins it at
// 0 allocs/op.
func BenchmarkFrameFlush(b *testing.B) {
	enc := Encode(benchUpdate())
	fb := NewFrameBuilder()
	for i := 0; i < 16; i++ {
		fb.AppendEncoded(enc)
	}
	b.SetBytes(int64(len(fb.Datagram())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb.Reset()
		for j := 0; j < 16; j++ {
			fb.AppendEncoded(enc)
		}
		_ = fb.Datagram()
	}
}

// BenchmarkDecodeFrame measures what the backup runs per datagram: a
// reused Decoder on a 16-update frame. CI pins it at 0 allocs/op.
func BenchmarkDecodeFrame(b *testing.B) {
	enc := Encode(benchUpdate())
	fb := NewFrameBuilder()
	for i := 0; i < 16; i++ {
		fb.AppendEncoded(enc)
	}
	dg := fb.Datagram()
	var d Decoder
	b.SetBytes(int64(len(dg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(dg); err != nil {
			b.Fatal(err)
		}
	}
}

// Decoding a list message allocates its reader, the message, the list
// and one copy per string or payload, nothing more per element: an
// 8-entry StateChunk 3+16 times, an 8-spec JoinAccept 3+8, and a
// StateDigest, which holds neither, 3.
func TestListDecodeAllocs(t *testing.T) {
	chunk, accept, digest := &StateChunk{Epoch: 3}, &JoinAccept{Epoch: 3}, &StateDigest{Epoch: 3}
	for i := uint32(0); i < 8; i++ {
		chunk.Entries = append(chunk.Entries, StateEntry{ObjectID: i, Seq: 4, Spec: Spec{Name: "pressure",
			Size: 64, Period: time.Millisecond}, Payload: []byte("0123456789abcdef")})
		accept.Specs = append(accept.Specs, SpecEntry{ObjectID: i, Spec: Spec{Name: "pressure", Size: 64}})
		digest.Entries = append(digest.Entries, DigestEntry{ObjectID: i, Epoch: 1, Seq: 2})
	}
	for _, tc := range []struct {
		m    Message
		want float64
	}{{chunk, 19}, {accept, 11}, {digest, 3}} {
		enc := Encode(tc.m)
		if got := testing.AllocsPerRun(100, func() { _, _ = Decode(enc) }); got > tc.want {
			t.Errorf("decoding an 8-entry %v allocates %v times, want at most %v", tc.m.WireKind(), got, tc.want)
		}
	}
}
