package durable

import (
	"encoding/binary"
	"hash/crc32"
	"os"
)

// ObjectState is one object's full durable image: the admitted spec
// plus the last applied value and its supersession coordinates. It is
// the unit of both snapshots and recovery output, and deliberately uses
// only primitive fields so core can depend on durable without a cycle.
type ObjectState struct {
	ID       uint32
	Name     string
	Size     uint32
	Period   int64 // nanoseconds
	DeltaP   int64
	DeltaB   int64
	Critical bool

	Epoch   uint32
	Seq     uint64
	Version int64 // UnixNano
	HasData bool
	Value   []byte
}

// Snapshot file layout: u32 magic, u32 body length, u32 CRC-32 (IEEE)
// of the body, then the body: the u64 cover index and a run of log
// records — one Epoch record, then for each object a Spec record and,
// when it has a value, an Apply record. Recovery folds those records
// exactly as it folds the log's tail. The whole-body CRC means a torn or
// short-fsynced snapshot is detected as a unit and recovery falls back
// to the previous one. A file with another magic, such as the earlier
// field-by-field layout ("RTPS"), is skipped, never misread.
const (
	snapMagic  = 0x32505452 // "RTP2"
	snapHeader = 12
)

func encodeSnapshot(epoch uint32, cover uint64, objs []ObjectState) []byte {
	out := make([]byte, snapHeader, 64+len(objs)*64)
	out = binary.LittleEndian.AppendUint64(out, cover)
	out = AppendRecord(out, &Record{Kind: KindEpoch, Epoch: epoch})
	for i := range objs {
		o := &objs[i]
		spec := specRecord(o)
		out = AppendRecord(out, &spec)
		if o.HasData {
			out = AppendRecord(out, &Record{Kind: KindApply, ObjectID: o.ID, Epoch: o.Epoch, Seq: o.Seq, Version: o.Version, Value: o.Value})
		}
	}
	binary.LittleEndian.PutUint32(out, snapMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(out)-snapHeader))
	binary.LittleEndian.PutUint32(out[8:], crc32.Checksum(out[snapHeader:], crcTable))
	return out
}

// loadSnapshot reads one snapshot file and returns its epoch, its cover
// index and its records, which alias the file's bytes. Any structural
// problem — bad magic, short body, CRC mismatch, a record that does not
// decode, a body that does not open with an Epoch record — invalidates
// the whole snapshot.
func loadSnapshot(path string) (epoch uint32, cover uint64, recs []Record, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil || len(data) < snapHeader+8 || binary.LittleEndian.Uint32(data) != snapMagic ||
		int(binary.LittleEndian.Uint32(data[4:])) != len(data)-snapHeader ||
		crc32.Checksum(data[snapHeader:], crcTable) != binary.LittleEndian.Uint32(data[8:]) {
		return 0, 0, nil, false
	}
	cover = binary.LittleEndian.Uint64(data[snapHeader:])
	for body := data[snapHeader+8:]; len(body) > 0; {
		rec, n, err := DecodeRecord(body)
		if err != nil {
			return 0, 0, nil, false
		}
		recs = append(recs, rec)
		body = body[n:]
	}
	if len(recs) == 0 || recs[0].Kind != KindEpoch {
		return 0, 0, nil, false
	}
	return recs[0].Epoch, cover, recs, true
}
