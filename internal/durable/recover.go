package durable

import (
	"errors"
	"os"
	"sort"
)

// State is the durable image reconstructed by Recover: the newest valid
// snapshot plus every decodable record above it, in order.
type State struct {
	// Objects is the recovered object set, sorted by ID. Objects whose
	// spec never made it to disk are dropped (a value without a spec
	// cannot be re-registered).
	Objects []ObjectState
	// Epoch is the highest epoch witnessed anywhere in the image. A
	// restarting primary must fence above it.
	Epoch uint32
}

// RecoveryStats describes how recovery went, for logging and the ctl
// LOGSTAT recovery-source report.
type RecoveryStats struct {
	// SnapshotUsed reports whether a snapshot seeded the image;
	// SnapshotEpoch is its epoch; SnapshotsTried counts how many
	// snapshot files were examined (>1 means fallback happened).
	SnapshotUsed   bool
	SnapshotEpoch  uint32
	SnapshotsTried int
	// SegmentsReplayed and RecordsReplayed count the tail replay.
	SegmentsReplayed int
	RecordsReplayed  int
	// Stopped names what ended replay early: "" (clean end of log),
	// "torn-tail", "corrupt-record", or "missing-segment".
	Stopped string
}

// Recover rebuilds the durable image from dir. It is the recovery
// state machine:
//
//	scan → pick newest valid snapshot (falling back on torn ones)
//	     → replay segments with index ≥ the snapshot's cover, in order
//	     → stop at the first invalid record or index gap
//	     → drop spec-less objects
//
// Corruption is never an error — it just shortens the replayed tail;
// the worst case (everything torn) recovers an empty image. The only
// errors returned are real I/O failures listing the directory. A
// missing directory recovers an empty image.
func Recover(dir string) (*State, *RecoveryStats, error) {
	st := &State{}
	rs := &RecoveryStats{}
	segs, snaps, err := scanDir(dir)
	if err != nil {
		return st, rs, err
	}

	objs := map[uint32]*ObjectState{}
	var cover uint64
	for _, sn := range snaps { // newest first
		rs.SnapshotsTried++
		epoch, cv, recs, ok := loadSnapshot(sn.Path)
		if !ok {
			continue
		}
		rs.SnapshotUsed, rs.SnapshotEpoch, cover = true, epoch, cv
		for i := range recs {
			applyToState(objs, st, &recs[i])
		}
		break
	}

	// Replay the tail: segments at or above the snapshot's cover, in
	// index order, stopping at the first gap — a missing segment means
	// everything after it may depend on lost records.
	expect := cover
	if expect == 0 {
		expect = 1 // no snapshot: the log must start at the first segment
	}
replay:
	for _, seg := range segs {
		if seg.Index < cover {
			continue
		}
		if seg.Index != expect {
			rs.Stopped = "missing-segment"
			break
		}
		expect = seg.Index + 1
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			rs.Stopped = "missing-segment"
			break
		}
		rs.SegmentsReplayed++
		for len(data) > 0 {
			rec, n, derr := DecodeRecord(data)
			if derr != nil {
				if errors.Is(derr, ErrShortRecord) {
					rs.Stopped = "torn-tail"
				} else {
					rs.Stopped = "corrupt-record"
				}
				break replay
			}
			data = data[n:]
			rs.RecordsReplayed++
			applyToState(objs, st, &rec)
		}
	}

	for _, o := range objs {
		if o.Name == "" {
			continue // spec never reached disk; value alone is unusable
		}
		if o.Epoch > st.Epoch {
			st.Epoch = o.Epoch
		}
		st.Objects = append(st.Objects, *o)
	}
	sort.Slice(st.Objects, func(i, j int) bool { return st.Objects[i].ID < st.Objects[j].ID })
	return st, rs, nil
}

// applyToState folds one record into the image under the same
// supersession rule the live replica uses: a value applies if its
// (epoch, seq) is not behind the current image.
func applyToState(objs map[uint32]*ObjectState, st *State, rec *Record) {
	switch rec.Kind {
	case KindSpec:
		o := objs[rec.ObjectID]
		if o == nil {
			o = &ObjectState{ID: rec.ObjectID}
			objs[rec.ObjectID] = o
		}
		o.Name = rec.Name
		o.Size = rec.Size
		o.Period, o.DeltaP, o.DeltaB = rec.Period, rec.DeltaP, rec.DeltaB
		o.Critical = rec.Critical
	case KindApply:
		o := objs[rec.ObjectID]
		if o == nil {
			o = &ObjectState{ID: rec.ObjectID}
			objs[rec.ObjectID] = o
		}
		if o.HasData && (rec.Epoch < o.Epoch || (rec.Epoch == o.Epoch && rec.Seq < o.Seq)) {
			return
		}
		o.Epoch, o.Seq, o.Version = rec.Epoch, rec.Seq, rec.Version
		o.Value = append(o.Value[:0], rec.Value...)
		o.HasData = true
		if rec.Epoch > st.Epoch {
			st.Epoch = rec.Epoch
		}
	case KindUnregister:
		delete(objs, rec.ObjectID)
	case KindEpoch:
		if rec.Epoch > st.Epoch {
			st.Epoch = rec.Epoch
		}
	}
}
