package core

import (
	"fmt"
	"time"

	"rtpb/internal/durable"
	"rtpb/internal/temporal"
)

// This file is the replica side of the durable persistence seam: append
// on apply, snapshot on epoch advance (and every snapshotEvery applies,
// and whenever the async log reports drop-to-snapshot), restore on
// restart. Every hook is a no-op when Config.Durable is nil, and none
// of them ever blocks on disk — internal/durable's appends are
// enqueue-only and snapshots hand off a private copy.

// logSpec records an admitted or installed object spec.
func (r *Replica) logSpec(o *object) {
	if r.cfg.Durable == nil || r.durRestoring || o.spec.Name == "" {
		return
	}
	r.cfg.Durable.AppendSpec(r.durSpec(o))
}

// logApply records an applied value and drives the periodic snapshot
// cadence. Backup applies pass their wire coordinates; primary-authored
// writes pass the serving epoch.
func (r *Replica) logApply(o *object, epoch uint32, seq uint64, version time.Time, value []byte) {
	if r.cfg.Durable == nil || r.durRestoring {
		return
	}
	r.cfg.Durable.AppendApply(o.id, epoch, seq, version.UnixNano(), value)
	r.durApplies++
	if r.durApplies >= snapshotEvery || r.cfg.Durable.NeedsSnapshot() {
		r.durableSnapshot()
	}
}

// logUnregister records an object removal so recovery cannot resurrect
// it.
func (r *Replica) logUnregister(id uint32) {
	if r.cfg.Durable == nil || r.durRestoring {
		return
	}
	r.cfg.Durable.AppendUnregister(id)
}

// noteEpochDurable records an epoch advance (promotion or fencing
// adoption) and snapshots: the epoch record rolls the log to a
// fresh segment, so segments never span epochs and pruning drops whole
// epochs below the stable mark.
func (r *Replica) noteEpochDurable() {
	if r.cfg.Durable == nil || r.durRestoring {
		return
	}
	r.cfg.Durable.AppendEpoch(r.epoch)
	r.durableSnapshot()
}

// durableSnapshot hands the full object image to the log. Values are
// copied here, on the executor, so the background writer never races
// the table.
func (r *Replica) durableSnapshot() {
	if r.cfg.Durable == nil {
		return
	}
	objs := make([]durable.ObjectState, 0, len(r.adm.objects))
	for _, o := range r.adm.ordered() {
		if o.spec.Name == "" {
			continue // spec-less placeholder: nothing recoverable
		}
		st := r.durSpec(o)
		st.Epoch = o.recvEpoch
		if r.role == RolePrimary {
			st.Epoch = r.epoch
		}
		st.Seq = o.seq
		st.Version = o.version.UnixNano()
		st.HasData = o.hasData
		if o.hasData {
			st.Value = append([]byte(nil), o.value...)
		}
		objs = append(objs, st)
	}
	r.cfg.Durable.Snapshot(r.epoch, objs)
	r.durApplies = 0
}

// durSpec converts an object's spec to its durable image.
func (r *Replica) durSpec(o *object) durable.ObjectState {
	return durable.ObjectState{
		ID:       o.id,
		Name:     o.spec.Name,
		Size:     uint32(o.spec.Size),
		Period:   int64(o.spec.UpdatePeriod),
		DeltaP:   int64(o.spec.Constraint.DeltaP),
		DeltaB:   int64(o.spec.Constraint.DeltaB),
		Critical: o.spec.Critical,
	}
}

// RestoreDurable installs a recovered durable image into the table
// without re-logging it: specs are installed with the same derived
// update periods a wire registration would get, and values keep their
// recovered (epoch, seq, version) coordinates so the join digest
// advertises them and anti-entropy streams only what is genuinely
// newer elsewhere. Existing newer local state is never overwritten. It
// returns how many object values were seeded.
//
// This is the disk half of disk-fast rejoin: call it on a fresh
// replica before Join, and catch-up cost becomes proportional to
// downtime (the gap) rather than state size. The restored objects
// still re-enter through catch-up temporal semantics — bounds stay
// suspended until a live update lands within δ_B — because a disk
// image, like a transferred one, can be arbitrarily stale.
func (r *Replica) RestoreDurable(st *durable.State) int {
	if st == nil || len(st.Objects) == 0 {
		return 0
	}
	r.durRestoring = true
	defer func() { r.durRestoring = false }()
	restored := 0
	for i := range st.Objects {
		d := &st.Objects[i]
		if d.Name == "" {
			continue
		}
		o := r.adm.placeholder(d.ID)
		if o.spec.Name == "" {
			r.adm.installSpec(o, recoveredSpec(d))
		}
		if d.HasData && !o.hasData {
			o.recvEpoch = d.Epoch
			o.seq = d.Seq
			o.install(append(o.value[:0], d.Value...), time.Unix(0, d.Version))
			restored++
		}
	}
	if st.Epoch > r.epoch {
		r.epoch = st.Epoch
	}
	r.durRestored += restored
	return restored
}

// ResumeFromDisk rebuilds a restarted primary from its recovered
// durable image. Specs re-enter through Register in recovered-ID order,
// so IDs survive the power cycle and admission accounting is rebuilt;
// values are seeded; the epoch is fenced one past the recovered one, so
// straggler traffic from the previous incarnation is rejected. It
// returns the seeded count and one error per object not resumed.
func (r *Replica) ResumeFromDisk(st *durable.State) (seeded int, errs []error) {
	for i := range st.Objects {
		d := &st.Objects[i]
		if dec := r.Register(recoveredSpec(d)); !dec.Accepted {
			errs = append(errs, fmt.Errorf("recovered object %q rejected: %s", d.Name, dec.Reason))
			continue
		}
		if d.HasData {
			if err := r.SeedObject(d.Name, d.Value, time.Unix(0, d.Version)); err != nil {
				errs = append(errs, fmt.Errorf("seed %q: %w", d.Name, err))
				continue
			}
			seeded++
		}
	}
	r.SetEpoch(st.Epoch + 1)
	r.durRestored += seeded
	return seeded, errs
}

// recoveredSpec converts a recovered durable image back to its spec.
func recoveredSpec(d *durable.ObjectState) ObjectSpec {
	return ObjectSpec{
		Name:         d.Name,
		Size:         int(d.Size),
		UpdatePeriod: time.Duration(d.Period),
		Constraint: temporal.ExternalConstraint{
			DeltaP: time.Duration(d.DeltaP),
			DeltaB: time.Duration(d.DeltaB),
		},
		Critical: d.Critical,
	}
}

// DurableStats reports the durable store's state; ok is false when
// persistence is not enabled.
func (r *Replica) DurableStats() (st durable.Stats, ok bool) {
	if r.cfg.Durable == nil {
		return durable.Stats{}, false
	}
	return r.cfg.Durable.Stats(), true
}

// ForceDurableSnapshot captures a snapshot now (the ctl SNAPSHOT verb),
// waits for the writer to commit it, and reports the resulting stats.
func (r *Replica) ForceDurableSnapshot() (durable.Stats, bool) {
	if r.cfg.Durable == nil {
		return durable.Stats{}, false
	}
	r.durableSnapshot()
	r.cfg.Durable.Sync()
	return r.cfg.Durable.Stats(), true
}

// RecoverySource names where this replica's state came from: "none"
// (no durable store), "disk" (a recovered image seeded the table — the
// join digest then limited anti-entropy to the gap), or "network"
// (durable store present but nothing restored; a fresh replica fills
// entirely over the wire).
func (r *Replica) RecoverySource() string {
	switch {
	case r.cfg.Durable == nil:
		return "none"
	case r.durRestored > 0:
		return "disk"
	default:
		return "network"
	}
}

// RestoredObjects reports how many object values RestoreDurable or
// ResumeFromDisk seeded.
func (r *Replica) RestoredObjects() int { return r.durRestored }
