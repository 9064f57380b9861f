// Package durable is the write-ahead object log and snapshot store that
// gives a replica a disk image to restart from. It sits deliberately off
// the paper-critical update path: the temporal guarantees of RTPB are
// about image staleness, not durability, so appends are asynchronous
// (bounded channel + background writer, drop-to-snapshot on overflow)
// and the update hot path never waits on a write or fsync.
//
// The store is organized by epoch so pruning is trivial: the log is a
// sequence of segment files named by (epoch, index), rolled on every
// epoch advance and on a size threshold, and a snapshot covers every
// segment below its index. Pruning drops whole segments below the
// stable mark (the cover of the oldest retained snapshot) — no
// record-level surgery, just unlink.
//
// Records are CRC-framed and length-prefixed. Recovery replays the
// newest valid snapshot plus the ordered segment tail above it, and
// stops at the first invalid record — a torn tail, a truncated segment,
// a bit flip, or a missing segment ends replay rather than corrupting
// state. The disk fault injector in inject.go manufactures exactly
// those failures for internal/chaos.
package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"rtpb/internal/wire"
)

// Kind discriminates log record types.
type Kind uint8

const (
	// KindSpec records an object registration: identity, name, and the
	// admitted temporal constraint. Logged when a spec is admitted or
	// installed, before any value for the object.
	KindSpec Kind = 1
	// KindApply records an applied object value: the (epoch, seq)
	// supersession coordinates, the version timestamp, and the payload.
	KindApply Kind = 2
	// KindUnregister records an object removal so recovery does not
	// resurrect deleted objects.
	KindUnregister Kind = 3
	// KindEpoch marks an epoch advance (promotion, demotion, adoption).
	// The writer rolls to a fresh segment on epoch advance, so these
	// normally open a segment.
	KindEpoch Kind = 4
)

// Record is one log entry. Which fields are meaningful depends on Kind:
// every record carries ObjectID except KindEpoch; KindSpec carries the
// spec fields; KindApply carries Epoch/Seq/Version/Value.
type Record struct {
	Kind     Kind
	ObjectID uint32

	// Apply coordinates (KindApply; Epoch also on KindEpoch).
	Epoch   uint32
	Seq     uint64
	Version int64 // UnixNano of the value's version timestamp

	// Spec fields (KindSpec). Durations are nanoseconds.
	Name     string
	Size     uint32
	Period   int64
	DeltaP   int64
	DeltaB   int64
	Critical bool

	// Value payload (KindApply).
	Value []byte
}

// Framing: u32 little-endian body length, u32 little-endian CRC-32
// (IEEE) of the body, then the body. The body starts with the Kind
// byte. A record is self-delimiting, so a segment is just concatenated
// records and decode can stop cleanly at the first frame that does not
// check out.
const (
	recordHeader = 8
	// applyFixed is an Apply record's body less its value: kind, object
	// ID, epoch, seq, version and value length.
	applyFixed = 1 + 4 + 4 + 8 + 8 + 4
	// maxRecordBytes bounds a single record (framing included) at an
	// Apply record of the largest value a write may carry. A length
	// prefix beyond it is corruption, not a large record — it stops
	// replay instead of attempting a huge allocation.
	maxRecordBytes = recordHeader + applyFixed + wire.MaxPayload
)

var (
	// ErrShortRecord means the buffer ends mid-record: a torn tail.
	// Every byte so far may be valid; there just aren't enough of them.
	ErrShortRecord = errors.New("durable: short record (torn tail)")
	// ErrCorruptRecord means the frame is structurally invalid: CRC
	// mismatch, impossible length, unknown kind, or truncated fields
	// inside a checksummed body.
	ErrCorruptRecord = errors.New("durable: corrupt record")
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// AppendRecord appends the framed encoding of r to dst and returns the
// extended slice. It copies Name and Value, so the caller's buffers are
// not retained. The hot path calls this with a pooled dst, so it must
// not allocate beyond growing dst.
func AppendRecord(dst []byte, r *Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholder
	body := len(dst)
	dst = append(dst, byte(r.Kind))
	switch r.Kind {
	case KindSpec:
		dst = binary.LittleEndian.AppendUint32(dst, r.ObjectID)
		dst = binary.LittleEndian.AppendUint32(dst, r.Size)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Period))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.DeltaP))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.DeltaB))
		if r.Critical {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(r.Name)))
		dst = append(dst, r.Name...)
	case KindApply:
		dst = binary.LittleEndian.AppendUint32(dst, r.ObjectID)
		dst = binary.LittleEndian.AppendUint32(dst, r.Epoch)
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Version))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Value)))
		dst = append(dst, r.Value...)
	case KindUnregister:
		dst = binary.LittleEndian.AppendUint32(dst, r.ObjectID)
	case KindEpoch:
		dst = binary.LittleEndian.AppendUint32(dst, r.Epoch)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-body))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[body:], crcTable))
	return dst
}

// DecodeRecord decodes the first record in b. It returns the record,
// the number of bytes consumed, and an error: ErrShortRecord when b
// ends mid-record (consumed is 0), ErrCorruptRecord when the frame is
// invalid. It never panics on arbitrary input — this is the contract
// FuzzDecodeLogRecord enforces — and the returned record aliases b's
// Name/Value bytes (callers that retain them must copy).
func DecodeRecord(b []byte) (Record, int, error) {
	var r Record
	if len(b) < recordHeader {
		return r, 0, ErrShortRecord
	}
	n := binary.LittleEndian.Uint32(b)
	crc := binary.LittleEndian.Uint32(b[4:])
	if n == 0 || n > maxRecordBytes-recordHeader {
		return r, 0, ErrCorruptRecord
	}
	if uint32(len(b)-recordHeader) < n {
		return r, 0, ErrShortRecord
	}
	body := b[recordHeader : recordHeader+int(n)]
	if crc32.Checksum(body, crcTable) != crc {
		return r, 0, ErrCorruptRecord
	}
	consumed := recordHeader + int(n)
	r.Kind = Kind(body[0])
	p := body[1:]
	u32 := func() (uint32, bool) {
		if len(p) < 4 {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(p)
		p = p[4:]
		return v, true
	}
	u64 := func() (uint64, bool) {
		if len(p) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(p)
		p = p[8:]
		return v, true
	}
	switch r.Kind {
	case KindSpec:
		id, ok1 := u32()
		size, ok2 := u32()
		period, ok3 := u64()
		deltaP, ok4 := u64()
		deltaB, ok5 := u64()
		if !(ok1 && ok2 && ok3 && ok4 && ok5) || len(p) < 3 || p[0] > 1 {
			return r, 0, ErrCorruptRecord
		}
		r.ObjectID, r.Size = id, size
		r.Period, r.DeltaP, r.DeltaB = int64(period), int64(deltaP), int64(deltaB)
		r.Critical = p[0] == 1
		nameLen := int(binary.LittleEndian.Uint16(p[1:]))
		p = p[3:]
		if len(p) != nameLen {
			return r, 0, ErrCorruptRecord
		}
		r.Name = string(p)
	case KindApply:
		id, ok1 := u32()
		epoch, ok2 := u32()
		seq, ok3 := u64()
		version, ok4 := u64()
		valLen, ok5 := u32()
		if !(ok1 && ok2 && ok3 && ok4 && ok5) || len(p) != int(valLen) {
			return r, 0, ErrCorruptRecord
		}
		r.ObjectID, r.Epoch, r.Seq, r.Version = id, epoch, seq, int64(version)
		r.Value = p
	case KindUnregister:
		id, ok := u32()
		if !ok || len(p) != 0 {
			return r, 0, ErrCorruptRecord
		}
		r.ObjectID = id
	case KindEpoch:
		epoch, ok := u32()
		if !ok || len(p) != 0 {
			return r, 0, ErrCorruptRecord
		}
		r.Epoch = epoch
	default:
		return r, 0, ErrCorruptRecord
	}
	return r, consumed, nil
}
