package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Encode(m)
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode(%s): %v", m.WireKind(), err)
	}
	if got.WireKind() != m.WireKind() {
		t.Fatalf("kind = %v, want %v", got.WireKind(), m.WireKind())
	}
	return got
}

func TestRoundTripRegister(t *testing.T) {
	in := &Register{
		ObjectID: 7,
		Name:     "altimeter",
		Size:     512,
		Period:   40 * time.Millisecond,
		DeltaP:   50 * time.Millisecond,
		DeltaB:   120 * time.Millisecond,
		Critical: true,
	}
	out := roundTrip(t, in).(*Register)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

// A string field carries at most MaxString bytes behind its 16-bit
// length: that many round-trip, and encoding one more panics rather than
// wrap the length and misparse every field after it.
func TestStringFieldLimit(t *testing.T) {
	in := &Register{ObjectID: 1, Name: strings.Repeat("n", MaxString), Size: 8}
	if out := roundTrip(t, in).(*Register); !reflect.DeepEqual(in, out) {
		t.Fatalf("a %d-byte name did not round-trip", len(in.Name))
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("encoding a %d-byte name did not panic", MaxString+1)
		}
	}()
	Encode(&Register{Name: in.Name + "n"})
}

func TestRoundTripRegisterReply(t *testing.T) {
	cases := []*RegisterReply{{ObjectID: 1}, {ObjectID: 1<<32 - 1}}
	for _, in := range cases {
		out := roundTrip(t, in).(*RegisterReply)
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	}
}

func TestRoundTripUpdate(t *testing.T) {
	in := &Update{ObjectID: 3, Seq: 99, Version: 123456789, Payload: []byte("sensor-value")}
	out := roundTrip(t, in).(*Update)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestRoundTripUpdateEmptyPayload(t *testing.T) {
	in := &Update{ObjectID: 3, Seq: 1, Version: -5}
	out := roundTrip(t, in).(*Update)
	if out.Version != -5 {
		t.Fatalf("negative version did not survive: %d", out.Version)
	}
	if len(out.Payload) != 0 {
		t.Fatalf("payload = %q, want empty", out.Payload)
	}
}

func TestRoundTripRetransmitRequest(t *testing.T) {
	in := &RetransmitRequest{ObjectID: 12, LastSeq: 41}
	out := roundTrip(t, in).(*RetransmitRequest)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestRoundTripPingAndAck(t *testing.T) {
	p := roundTrip(t, &Ping{Seq: 8, From: RoleBackup}).(*Ping)
	if p.Seq != 8 || p.From != RoleBackup {
		t.Fatalf("ping mismatch: %+v", p)
	}
	a := roundTrip(t, &PingAck{Seq: 8, From: RolePrimary}).(*PingAck)
	if a.Seq != 8 || a.From != RolePrimary {
		t.Fatalf("ack mismatch: %+v", a)
	}
}

func TestRoundTripOrderAndAck(t *testing.T) {
	in := &Order{Seq: 42, ObjectID: 7, Version: -12345, Payload: []byte("ordered")}
	out := roundTrip(t, in).(*Order)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
	ack := roundTrip(t, &OrderAck{Seq: 42}).(*OrderAck)
	if ack.Seq != 42 {
		t.Fatalf("ack seq = %d", ack.Seq)
	}
}

func TestRoundTripModeChange(t *testing.T) {
	in := &ModeChange{Epoch: 3, ObjectID: 9, Mode: 2, Seq: 17, EffectiveBound: 375 * time.Millisecond}
	out := roundTrip(t, in).(*ModeChange)
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("ModeChange round-trip: got %+v, want %+v", out, in)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	b := Encode(&Ping{Seq: 1, From: RolePrimary})
	b[0] ^= 0xFF
	if _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	b := Encode(&Ping{Seq: 1, From: RolePrimary})
	b[2] = 99
	if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

// TestDecodeRejectsUnknownKind covers a kind never assigned and the
// three retired ones: 7, the Takeover announcement, and 8 and 9, the
// monolithic StateTransfer/StateTransferAck, each with the body it used
// to carry. A frame carrying a retired kind
// is dropped whole, not delivered minus the one message.
func TestDecodeRejectsUnknownKind(t *testing.T) {
	header := func(k Kind) []byte {
		return append(binary.BigEndian.AppendUint16(nil, Magic), Version, uint8(k))
	}
	unassigned := Encode(&Ping{Seq: 1, From: RolePrimary})
	unassigned[3] = 0xEE
	cases := map[string][]byte{
		"unassigned": unassigned,
		// New primary "b:7000", epoch 2.
		"retired 7": append(append(header(7), 0, 6), append([]byte("b:7000"), 0, 0, 0, 2)...),
		// Epoch 2, no entries.
		"retired 8": append(header(8), 0, 0, 0, 2, 0, 0, 0, 0),
		// Epoch 2, 2 objects applied.
		"retired 9": append(header(9), 0, 0, 0, 2, 0, 0, 0, 2),
	}
	for name, b := range cases {
		if _, err := Decode(b); !errors.Is(err, ErrUnknownKind) {
			t.Errorf("%s: err = %v, want ErrUnknownKind", name, err)
		}
		f := NewFrameBuilder()
		f.AppendEncoded(Encode(&Ping{Seq: 1, From: RolePrimary}))
		f.AppendEncoded(b)
		f.AppendEncoded(Encode(&Update{ObjectID: 1, Seq: 1, Payload: []byte("x")}))
		if msgs, err := DecodeFrame(f.Datagram()); !errors.Is(err, ErrUnknownKind) || msgs != nil {
			t.Errorf("%s in a frame: %d messages, err = %v, want none and ErrUnknownKind", name, len(msgs), err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	full := Encode(&Update{ObjectID: 3, Seq: 9, Version: 1, Payload: []byte("hello")})
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n]); err == nil {
			t.Fatalf("Decode accepted %d-byte prefix of %d-byte message", n, len(full))
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	b := append(Encode(&Ping{Seq: 1, From: RolePrimary}), 0x00)
	if _, err := Decode(b); !errors.Is(err, ErrTrailing) {
		t.Fatalf("err = %v, want ErrTrailing", err)
	}
}

func TestDecodeRejectsOversizePayloadLength(t *testing.T) {
	b := Encode(&Update{ObjectID: 1, Seq: 1, Version: 1, Payload: []byte("x")})
	// The payload length prefix is the 4 bytes before the final payload
	// byte; forge it to a huge value.
	copy(b[len(b)-5:], []byte{0x7F, 0xFF, 0xFF, 0xFF})
	if _, err := Decode(b[:len(b)-1]); !errors.Is(err, ErrOversize) {
		t.Fatalf("err = %v, want ErrOversize", err)
	}
}

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(128))
		rng.Read(b)
		// Half the time, give it a valid header so body parsing runs.
		if i%2 == 0 && len(b) >= 4 {
			b[0], b[1] = 0x52, 0xB0
			b[2] = Version
			b[3] = byte(1 + rng.Intn(12))
		}
		_, _ = Decode(b) // must not panic
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(id uint32, seq uint64, version int64, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		in := &Update{ObjectID: id, Seq: seq, Version: version, Payload: payload}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		u, ok := out.(*Update)
		return ok && u.ObjectID == id && u.Seq == seq && u.Version == version &&
			bytes.Equal(u.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodedPayloadIsACopy(t *testing.T) {
	b := Encode(&Update{ObjectID: 1, Seq: 1, Version: 1, Payload: []byte("abc")})
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	u := m.(*Update)
	for i := range b {
		b[i] = 0
	}
	if string(u.Payload) != "abc" {
		t.Fatalf("payload aliases the input buffer: %q", u.Payload)
	}
}

func TestKindAndRoleStrings(t *testing.T) {
	if KindUpdate.String() != "Update" || Kind(0).String() != "Kind(0)" {
		t.Fatal("Kind.String mismatch")
	}
	if RolePrimary.String() != "primary" || Role(9).String() != "Role(9)" {
		t.Fatal("Role.String mismatch")
	}
}
