package durable

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// Config configures a Log.
type Config struct {
	// Dir is the store directory; it is created if missing.
	Dir string
	// SegmentBytes rolls the current segment once it exceeds this many
	// bytes (default 512 KiB). Segments also roll on epoch advance and
	// before every snapshot.
	SegmentBytes int
	// QueueDepth bounds the async append queue (default 1024). When the
	// queue is full the record is dropped and the log flags that a
	// snapshot is wanted ("drop-to-snapshot"): the next snapshot makes
	// the dropped suffix irrelevant.
	QueueDepth int
	// Sync makes every operation apply inline on the caller's
	// goroutine, in call order, with no background writer. File
	// contents become a pure function of the append sequence — the
	// deterministic-simulation harness requires that — at the price of
	// synchronous write syscalls. It fsyncs only as a segment closes and
	// on Sync/Close ("synchronous" means ordered, not durable-per-record);
	// the default async writer fsyncs after every batch it drains.
	Sync bool
	// NoFsync suppresses fsync entirely (tests, benchmarks).
	NoFsync bool
}

func (c *Config) normalize() {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 512 << 10
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
}

// Stats is a point-in-time summary of the store, served by the ctl
// LOGSTAT verb.
type Stats struct {
	// Appended counts records accepted onto the queue (or written
	// inline in Sync mode); Dropped counts records shed on overflow.
	Appended uint64
	Dropped  uint64
	// Segments is the number of live segment files; PrunableSegments
	// and PrunableEpochs count the portion already covered by the
	// newest snapshot and retained only as fallback — the next
	// snapshot's prune will drop them.
	Segments         int
	PrunableSegments int
	PrunableEpochs   int
	PrunedSegments   uint64
	// Snapshots is the number of retained snapshot files;
	// LastSnapshotEpoch is the epoch of the newest.
	Snapshots         int
	LastSnapshotEpoch uint32
	// Epoch is the epoch the current segment was opened under.
	Epoch uint32
}

type opKind uint8

const (
	opRecord opKind = iota
	opEpoch
	opSnapshot
	opSync
	opQuit
)

type op struct {
	kind  opKind
	buf   *[]byte // opRecord: pooled framed record
	epoch uint32  // opEpoch
	ack   chan error
}

type pendingSnapshot struct {
	epoch uint32
	objs  []ObjectState
}

// Log is the durable store for one replica: an append-only segmented
// record log plus a snapshot store. Append methods are safe for
// concurrent use and never block on I/O in async mode.
type Log struct {
	cfg    Config
	ch     chan op
	pool   sync.Pool
	closed atomic.Bool
	done   chan struct{}

	appended atomic.Uint64
	dropped  atomic.Uint64
	needSnap atomic.Bool

	// pending holds the latest-wins snapshot request; the writer takes
	// it when it sees an opSnapshot tick.
	pendingMu sync.Mutex
	pending   *pendingSnapshot

	// Writer state: owned by the background goroutine in async mode,
	// guarded by wmu in Sync mode. Stats reads take wmu in both modes;
	// the async writer takes it briefly around mutations.
	wmu       sync.Mutex
	dir       string
	epoch     uint32
	nextIndex uint64
	cur       *os.File
	curBuf    *bufio.Writer
	curRef    segmentRef
	segs      []segmentRef
	snaps     []snapshotRef // newest first
	pruned    uint64
}

// Open opens (or creates) the store in cfg.Dir and starts a fresh
// segment. It never appends to a pre-existing segment — a prior
// process may have torn its tail — so every process lifetime gets its
// own segments; Recover is what reads the old ones.
func Open(cfg Config) (*Log, error) {
	cfg.normalize()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("durable: Config.Dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	segs, snaps, err := scanDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		cfg:       cfg,
		ch:        make(chan op, cfg.QueueDepth),
		done:      make(chan struct{}),
		dir:       cfg.Dir,
		segs:      segs,
		snaps:     snaps,
		epoch:     1,
		nextIndex: 1,
	}
	l.pool.New = func() any { b := make([]byte, 0, 256); return &b }
	for _, s := range segs {
		if s.Index >= l.nextIndex {
			l.nextIndex = s.Index + 1
		}
		if s.Epoch > l.epoch {
			l.epoch = s.Epoch
		}
	}
	for _, s := range snaps {
		if s.Index >= l.nextIndex {
			l.nextIndex = s.Index + 1
		}
		if s.Epoch > l.epoch {
			l.epoch = s.Epoch
		}
	}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	if !cfg.Sync {
		go l.run()
	}
	return l, nil
}

// openSegment opens a new segment at (epoch, nextIndex). Caller holds
// writer ownership.
func (l *Log) openSegment() error {
	ref := segmentRef{Epoch: l.epoch, Index: l.nextIndex, Path: filepath.Join(l.dir, segmentName(l.epoch, l.nextIndex))}
	f, err := os.OpenFile(ref.Path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.nextIndex++
	l.cur = f
	l.curBuf = bufio.NewWriterSize(f, 64<<10)
	l.curRef = ref
	l.segs = append(l.segs, ref)
	return nil
}

// closeSegment flushes and closes the current segment, recording its
// final size.
func (l *Log) closeSegment() {
	if l.cur == nil {
		return
	}
	l.curBuf.Flush()
	if !l.cfg.NoFsync {
		l.cur.Sync()
	}
	l.cur.Close()
	for i := range l.segs {
		if l.segs[i].Index == l.curRef.Index {
			l.segs[i].Bytes = l.curRef.Bytes
		}
	}
	l.cur = nil
}

// AppendSpec logs an object registration.
func (l *Log) AppendSpec(st ObjectState) {
	r := specRecord(&st)
	l.enqueue(&r)
}

// specRecord is the Spec record of an object's durable image.
func specRecord(o *ObjectState) Record {
	return Record{Kind: KindSpec, ObjectID: o.ID, Name: o.Name, Size: o.Size,
		Period: o.Period, DeltaP: o.DeltaP, DeltaB: o.DeltaB, Critical: o.Critical}
}

// AppendApply logs an applied value. The payload is copied before the
// call returns; in async mode the copy is into a pooled buffer and the
// only synchronization is one channel send — no file I/O, no fsync.
func (l *Log) AppendApply(id, epoch uint32, seq uint64, version int64, value []byte) {
	r := Record{Kind: KindApply, ObjectID: id, Epoch: epoch, Seq: seq, Version: version, Value: value}
	l.enqueue(&r)
}

// AppendUnregister logs an object removal.
func (l *Log) AppendUnregister(id uint32) {
	r := Record{Kind: KindUnregister, ObjectID: id}
	l.enqueue(&r)
}

// AppendEpoch logs an epoch advance and rolls to a fresh segment, so
// segment files never span epochs and pruning drops whole epochs.
func (l *Log) AppendEpoch(epoch uint32) {
	if l.closed.Load() {
		return
	}
	if l.cfg.Sync {
		l.wmu.Lock()
		l.applyEpoch(epoch)
		l.wmu.Unlock()
		return
	}
	select {
	case l.ch <- op{kind: opEpoch, epoch: epoch}:
	default:
		// An epoch advance that cannot queue still must not block; the
		// snapshot that follows every advance will capture the epoch.
		l.dropped.Add(1)
		l.needSnap.Store(true)
	}
}

func (l *Log) enqueue(r *Record) {
	if l.closed.Load() {
		return
	}
	if l.cfg.Sync {
		l.wmu.Lock()
		bp := l.pool.Get().(*[]byte)
		*bp = AppendRecord((*bp)[:0], r)
		l.applyRecord(bp)
		l.wmu.Unlock()
		l.appended.Add(1)
		return
	}
	bp := l.pool.Get().(*[]byte)
	*bp = AppendRecord((*bp)[:0], r)
	select {
	case l.ch <- op{kind: opRecord, buf: bp}:
		l.appended.Add(1)
	default:
		*bp = (*bp)[:0]
		l.pool.Put(bp)
		l.dropped.Add(1)
		l.needSnap.Store(true)
	}
}

// NeedsSnapshot reports whether appends have been dropped since the
// last snapshot: the caller should capture one soon to restore a
// complete durable image.
func (l *Log) NeedsSnapshot() bool { return l.needSnap.Load() }

// Snapshot requests a snapshot of the given full object image. The
// slice is retained until written; callers must pass a private copy.
// Latest request wins if several queue up before the writer gets to
// them. The snapshot rolls the segment, covers everything before the
// roll, and prunes segments below the stable mark.
func (l *Log) Snapshot(epoch uint32, objs []ObjectState) {
	if l.closed.Load() {
		return
	}
	l.pendingMu.Lock()
	l.pending = &pendingSnapshot{epoch: epoch, objs: objs}
	l.pendingMu.Unlock()
	if l.cfg.Sync {
		l.wmu.Lock()
		l.applySnapshot()
		l.wmu.Unlock()
		return
	}
	select {
	case l.ch <- op{kind: opSnapshot}:
	default:
		// Queue full: the writer will still find the pending snapshot
		// on its next drain because applyRecord checks for it.
	}
}

// Sync flushes the queue and fsyncs the current segment. It blocks; it
// exists for shutdown paths and tests, never the update hot path.
func (l *Log) Sync() error {
	if l.closed.Load() {
		return nil
	}
	if l.cfg.Sync {
		l.wmu.Lock()
		defer l.wmu.Unlock()
		return l.flushCur()
	}
	ack := make(chan error, 1)
	l.ch <- op{kind: opSync, ack: ack}
	return <-ack
}

// Close drains, fsyncs, and closes the store. Appends after Close are
// silently dropped.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	if l.cfg.Sync {
		l.wmu.Lock()
		defer l.wmu.Unlock()
		l.closeSegment()
		return nil
	}
	ack := make(chan error, 1)
	l.ch <- op{kind: opQuit, ack: ack}
	err := <-ack
	<-l.done
	return err
}

// Stats returns a point-in-time summary.
func (l *Log) Stats() Stats {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	st := Stats{
		Appended:       l.appended.Load(),
		Dropped:        l.dropped.Load(),
		Segments:       len(l.segs),
		PrunedSegments: l.pruned,
		Snapshots:      len(l.snaps),
		Epoch:          l.epoch,
	}
	if len(l.snaps) > 0 {
		newest := l.snaps[0]
		st.LastSnapshotEpoch = newest.Epoch
		epochs := map[uint32]bool{}
		for _, s := range l.segs {
			if s.Index < newest.Index {
				st.PrunableSegments++
				epochs[s.Epoch] = true
			}
		}
		st.PrunableEpochs = len(epochs)
	}
	return st
}

// run is the background writer: group-commit batches off the bounded
// queue, each fsynced once drained, with snapshot and prune work between.
func (l *Log) run() {
	defer close(l.done)
	for {
		o, ok := <-l.ch
		if !ok {
			return
		}
		if l.apply(o) {
			return
		}
		// Drain whatever else is queued, then flush once: group commit.
	drain:
		for i := 0; i < cap(l.ch); i++ {
			select {
			case o2 := <-l.ch:
				if l.apply(o2) {
					return
				}
			default:
				break drain
			}
		}
		l.wmu.Lock()
		// A Snapshot call that found the queue full left its request in
		// the pending slot; pick it up here so it is never deferred past
		// one drain cycle.
		l.applySnapshot()
		if l.curBuf != nil {
			l.curBuf.Flush()
			if !l.cfg.NoFsync && l.cur != nil {
				l.cur.Sync()
			}
		}
		l.wmu.Unlock()
	}
}

// apply executes one queued op; returns true on quit.
func (l *Log) apply(o op) bool {
	switch o.kind {
	case opRecord:
		l.wmu.Lock()
		l.applyRecord(o.buf)
		l.wmu.Unlock()
	case opEpoch:
		l.wmu.Lock()
		l.applyEpoch(o.epoch)
		l.wmu.Unlock()
	case opSnapshot:
		l.wmu.Lock()
		l.applySnapshot()
		l.wmu.Unlock()
	case opSync:
		l.wmu.Lock()
		l.applySnapshot() // opportunistic: a pending snapshot rides along
		err := l.flushCur()
		l.wmu.Unlock()
		o.ack <- err
	case opQuit:
		l.wmu.Lock()
		l.applySnapshot()
		l.closeSegment()
		l.wmu.Unlock()
		o.ack <- nil
		return true
	}
	return false
}

func (l *Log) flushCur() error {
	if l.curBuf == nil {
		return nil
	}
	if err := l.curBuf.Flush(); err != nil {
		return err
	}
	if l.cfg.NoFsync || l.cur == nil {
		return nil
	}
	return l.cur.Sync()
}

// applyRecord writes one framed record, rolling the segment on size.
// Caller holds wmu.
func (l *Log) applyRecord(bp *[]byte) {
	if l.cur == nil {
		return
	}
	l.curBuf.Write(*bp)
	l.curRef.Bytes += int64(len(*bp))
	*bp = (*bp)[:0]
	l.pool.Put(bp)
	if l.curRef.Bytes >= int64(l.cfg.SegmentBytes) {
		l.roll()
	}
}

// applyEpoch rolls to a fresh segment under the new epoch and opens it
// with the epoch record. Caller holds wmu.
func (l *Log) applyEpoch(epoch uint32) {
	if epoch > l.epoch {
		l.epoch = epoch
		l.roll()
	}
	r := Record{Kind: KindEpoch, Epoch: epoch}
	bp := l.pool.Get().(*[]byte)
	*bp = AppendRecord((*bp)[:0], &r)
	l.applyRecord(bp)
	l.appended.Add(1)
}

// roll closes the current segment and opens the next. Caller holds wmu.
func (l *Log) roll() {
	l.closeSegment()
	l.openSegment()
}

// applySnapshot writes the pending snapshot, if any: roll the segment
// so the snapshot's cover index is the new segment's index (everything
// below is closed and covered), write + fsync the snapshot file, then
// prune below the stable mark. Caller holds wmu.
func (l *Log) applySnapshot() {
	l.pendingMu.Lock()
	p := l.pending
	l.pending = nil
	l.pendingMu.Unlock()
	if p == nil {
		return
	}
	if p.epoch > l.epoch {
		l.epoch = p.epoch
	}
	l.roll()
	cover := l.curRef.Index // everything below this index is covered
	ref := snapshotRef{Epoch: p.epoch, Index: cover, Path: filepath.Join(l.dir, snapshotName(p.epoch, cover))}
	data := encodeSnapshot(p.epoch, cover, p.objs)
	tmp := ref.Path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	if !l.cfg.NoFsync {
		if f, err := os.Open(tmp); err == nil {
			f.Sync()
			f.Close()
		}
	}
	if err := os.Rename(tmp, ref.Path); err != nil {
		os.Remove(tmp)
		return
	}
	l.snaps = append([]snapshotRef{ref}, l.snaps...)
	l.needSnap.Store(false)
	l.prune()
}

// retainSnapshots is how many snapshots the store keeps. The stable mark
// is the cover index of the oldest retained snapshot; segments below it
// are pruned.
const retainSnapshots = 2

// prune enforces snapshot retention and drops whole segments below the
// stable mark — the cover index of the oldest retained snapshot.
// Caller holds wmu.
func (l *Log) prune() {
	if len(l.snaps) > retainSnapshots {
		for _, s := range l.snaps[retainSnapshots:] {
			os.Remove(s.Path)
		}
		l.snaps = l.snaps[:retainSnapshots]
	}
	if len(l.snaps) < retainSnapshots {
		// Until a full complement of snapshots exists, every segment is
		// somebody's only fallback: if the lone snapshot tears, the
		// whole log from the start rebuilds the image.
		return
	}
	stable := l.snaps[len(l.snaps)-1].Index
	keep := l.segs[:0]
	for _, s := range l.segs {
		if s.Index < stable {
			os.Remove(s.Path)
			l.pruned++
		} else {
			keep = append(keep, s)
		}
	}
	l.segs = keep
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].Index < l.segs[j].Index })
}
