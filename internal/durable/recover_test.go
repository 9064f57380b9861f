package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"rtpb/internal/wire"
)

// TestRecoverySurvivesEveryFault is the acceptance matrix: every
// injectable disk fault, with and without a snapshot present, must
// recover without error or panic, and whatever it recovers must be a
// valid prefix image — correct specs, values consistent with some
// applied seq, never garbage.
func TestRecoverySurvivesEveryFault(t *testing.T) {
	faults := []FaultKind{FaultTornTail, FaultShortFsync, FaultCorruptRecord, FaultMissingSegment, FaultTornSnapshot}
	for _, snapshot := range []bool{false, true} {
		for _, fk := range faults {
			t.Run(fmt.Sprintf("%s/snapshot=%v", fk, snapshot), func(t *testing.T) {
				dir := t.TempDir()
				fillLog(t, dir, Config{Sync: true, SegmentBytes: 2 << 10}, 4, 50, snapshot)
				desc, err := Inject(dir, fk)
				if err != nil {
					t.Fatalf("inject: %v", err)
				}
				st, rs, err := Recover(dir)
				if err != nil {
					t.Fatalf("recover after %s (%s): %v", fk, desc, err)
				}
				// With a snapshot present, the image can never fall below
				// it: all 4 objects at seq >= 50 (torn snapshot falls back
				// to... there is only one, so the tail rebuilds them).
				for _, o := range st.Objects {
					if o.Name == "" {
						t.Fatalf("recovered spec-less object %d", o.ID)
					}
					if o.HasData {
						want := fmt.Sprintf("v%d-%d", o.ID, o.Seq)
						if string(o.Value) != want {
							t.Fatalf("object %d: value %q inconsistent with seq %d", o.ID, o.Value, o.Seq)
						}
					}
				}
				if snapshot && fk != FaultTornSnapshot {
					// The snapshot is intact, so nothing above it is lost.
					if len(st.Objects) != 4 {
						t.Fatalf("%s lost snapshotted objects: %d/4 (%s, stats %+v)", fk, len(st.Objects), desc, rs)
					}
					for _, o := range st.Objects {
						if o.Seq < 50 {
							t.Fatalf("object %d regressed below snapshot seq: %d", o.ID, o.Seq)
						}
					}
				}
				t.Logf("%s: %s -> %d objects, %+v", fk, desc, len(st.Objects), rs)
			})
		}
	}
}

// TestRecoverEmptyAndMissingDir pins that recovery of nothing is an
// empty image, not an error.
func TestRecoverEmptyAndMissingDir(t *testing.T) {
	st, rs, err := Recover(t.TempDir() + "/does-not-exist")
	if err != nil || len(st.Objects) != 0 || rs.SnapshotUsed {
		t.Fatalf("missing dir: %v %+v %+v", err, st, rs)
	}
	st, _, err = Recover(t.TempDir())
	if err != nil || len(st.Objects) != 0 {
		t.Fatalf("empty dir: %v %+v", err, st)
	}
}

// TestRecoverStatePinned pins, field for field, what Recover rebuilds
// from the durable tests' fixtures: the fault matrix's log, with and
// without a snapshot, clean and after every fault, and a log of several
// epochs and snapshots. A change to the record or snapshot format must
// leave every recovered State and RecoveryStats where this digest has
// them.
func TestRecoverStatePinned(t *testing.T) {
	const want = "0d3a98b56db52b3131da19fd0ed6d4f9c56e3ed8738350e18c5ac698ea52d8d9"
	h := sha256.New()
	for _, snapshot := range []bool{false, true} {
		for fk := FaultKind(-1); fk <= FaultTornSnapshot; fk++ {
			dir := t.TempDir()
			fillLog(t, dir, Config{Sync: true, SegmentBytes: 2 << 10}, 4, 50, snapshot)
			if fk >= 0 {
				if _, err := Inject(dir, fk); err != nil {
					t.Fatalf("inject %s: %v", fk, err)
				}
			}
			st, rs, err := Recover(dir)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			fmt.Fprintf(h, "%s/snapshot=%v: %+v %+v\n", fk, snapshot, *st, *rs)
		}
	}
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Sync: true, NoFsync: true, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	objs := []ObjectState{
		{ID: 1, Name: "pressure", Size: 16, Period: 4e6, DeltaP: 5e6, DeltaB: 25e6, Critical: true},
		{ID: 2, Name: "valve", Size: 8, Period: 8e6, DeltaP: 10e6, DeltaB: 50e6},
		{ID: 3, Name: "gone", Size: 8, Period: 8e6, DeltaP: 10e6, DeltaB: 50e6},
	}
	for _, o := range objs {
		l.AppendSpec(o)
	}
	for epoch := uint32(1); epoch <= 3; epoch++ {
		l.AppendEpoch(epoch)
		for seq := uint64(1); seq <= 40; seq++ {
			for i := range objs {
				o := &objs[i]
				o.Epoch, o.Seq, o.Version, o.HasData = epoch, seq, int64(epoch)<<32|int64(seq), true
				o.Value = []byte(fmt.Sprintf("%s-%d-%d", o.Name, epoch, seq))
				l.AppendApply(o.ID, epoch, seq, o.Version, o.Value)
			}
			if seq%25 == 0 {
				l.Snapshot(epoch, append([]ObjectState(nil), objs...))
			}
		}
	}
	l.AppendUnregister(3)
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for _, fk := range []FaultKind{-1, FaultTornSnapshot, FaultCorruptRecord} {
		if fk >= 0 {
			if _, err := Inject(dir, fk); err != nil {
				t.Fatalf("inject %s: %v", fk, err)
			}
		}
		st, rs, err := Recover(dir)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		fmt.Fprintf(h, "epochs/%s: %+v %+v\n", fk, *st, *rs)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("recovered images moved: digest %s, want %s", got, want)
	}
}

// TestRecoverLargestWireValue logs the largest value a client write may
// carry (wire.MaxPayload) and then a small one: recovery must decode
// both, not stop at the large record and drop everything after it.
func TestRecoverLargestWireValue(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Sync: true, NoFsync: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	big := bytes.Repeat([]byte{0xa5}, wire.MaxPayload)
	l.AppendSpec(ObjectState{ID: 1, Name: "big", Size: wire.MaxPayload, Period: 1e6, DeltaP: 1e6, DeltaB: 1e6})
	l.AppendSpec(ObjectState{ID: 2, Name: "small", Size: 8, Period: 1e6, DeltaP: 1e6, DeltaB: 1e6})
	l.AppendApply(1, 1, 1, 1, big)
	l.AppendApply(2, 1, 1, 1, []byte("after"))
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.Stopped != "" || len(st.Objects) != 2 {
		t.Fatalf("stopped=%q with %d objects, want a clean replay of 2", rs.Stopped, len(st.Objects))
	}
	if !bytes.Equal(st.Objects[0].Value, big) || string(st.Objects[1].Value) != "after" {
		t.Fatalf("values not recovered: %d bytes, %q", len(st.Objects[0].Value), st.Objects[1].Value)
	}
}

// TestRecoverSkipsOldSnapshotLayout: a snapshot in the layout before
// the record run (magic "RTPS", fields written one by one) is skipped
// whole, never misread, and the log alone rebuilds the image.
func TestRecoverSkipsOldSnapshotLayout(t *testing.T) {
	dir := t.TempDir()
	fillLog(t, dir, Config{Sync: true}, 2, 3, true)
	_, snaps, err := scanDir(dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("scan: %d snapshots, %v", len(snaps), err)
	}
	data, err := os.ReadFile(snaps[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data, 0x52545053)
	if err := os.WriteFile(snaps[0].Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rs, err := Recover(dir)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rs.SnapshotUsed || rs.SnapshotsTried != 1 {
		t.Fatalf("old-layout snapshot used: %+v", rs)
	}
	if len(st.Objects) != 2 || st.Objects[0].Seq != 3 {
		t.Fatalf("log replay did not rebuild the image: %+v", st.Objects)
	}
}
