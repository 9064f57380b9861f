package core

import (
	"time"

	"rtpb/internal/wire"
)

// This file implements the backup role of the Replica state machine:
// applying replicated registrations and updates into the shared object
// table, detecting sequence gaps and requesting retransmission, answering
// heartbeats, and tracking the primary's overload announcements. The
// table it writes into is the same admission ledger a promotion serves
// from — nothing here is copied at takeover.

// demuxBackup handles inbound RTPB datagrams while shadowing as backup.
func (b *Replica) demuxBackup(msg wire.Message) {
	switch t := msg.(type) {
	case *wire.Register:
		b.handleRegister(t)
	case *wire.Update:
		b.handleUpdate(t)
	case *wire.Ping:
		b.send(&wire.PingAck{Seq: t.Seq, From: wire.RoleBackup})
	case *wire.PingAck:
		if b.OnPingAck != nil {
			b.OnPingAck(t.Seq)
		}
	case *wire.TimeSync:
		if t.Receive == 0 && t.Transmit == 0 {
			// A probe from the peer: echo it with our stamps. Receive and
			// transmit coincide under the serial executor (zero hold
			// time), which the estimator's rtt formula nets out anyway.
			now := b.cfg.Clock.Now().UnixNano()
			b.send(&wire.TimeSync{Seq: t.Seq, From: wire.RoleBackup,
				Originate: t.Originate, Receive: now, Transmit: now})
		} else {
			b.observeTimeSync(t)
		}
	case *wire.ModeChange:
		b.handleModeChange(t)
	case *wire.JoinAccept:
		b.handleJoinAccept(t)
	case *wire.StateChunk:
		b.handleStateChunk(t)
	case *wire.Unregister:
		b.handleUnregister(t)
	}
}

// observeEpoch applies the fencing rule: messages from an epoch older
// than one this backup has heard from are stale (a zombie primary after a
// takeover) and must be ignored; a newer epoch is adopted. Epoch 0 is
// "unstamped" and always accepted, so pre-takeover traffic flows.
func (b *Replica) observeEpoch(epoch uint32) bool {
	if b.cfg.DisableEpochFencing {
		// Ablation: adopt newer epochs but never reject older ones.
		if epoch > b.epoch {
			b.epoch = epoch
			b.noteEpochDurable()
		}
		return true
	}
	if epoch == 0 {
		return true
	}
	if epoch < b.epoch {
		return false
	}
	if epoch > b.epoch {
		b.epoch = epoch
		b.noteEpochDurable()
	}
	return true
}

func (b *Replica) handleRegister(t *wire.Register) {
	if !b.observeEpoch(t.Epoch) {
		return
	}
	b.adoptSpec(t.ObjectID, objectSpec(wire.Spec{Name: t.Name, Size: t.Size,
		Period: t.Period, DeltaP: t.DeltaP, DeltaB: t.DeltaB, Critical: t.Critical}))
	// Registration replies are idempotent; re-ack duplicates so a lost
	// reply does not strand the primary's retry loop.
	b.send(&wire.RegisterReply{ObjectID: t.ObjectID})
}

// adoptSpec is the one path by which a spec the primary replicated — in
// a Register, a JoinAccept or a StateChunk entry — reaches this
// replica's table. The object id may be new, or a placeholder an update
// or state transfer created ahead of its registration; either way the
// spec is installed with the update period it would serve with after a
// promotion, logged, and reported to OnRegister. An object that already
// has a spec keeps it.
func (b *Replica) adoptSpec(id uint32, spec ObjectSpec) *object {
	o := b.adm.placeholder(id)
	if o.spec.Name == "" && spec.Name != "" {
		b.adm.installSpec(o, spec)
		b.logSpec(o)
		if b.OnRegister != nil {
			b.OnRegister(spec)
		}
	}
	return o
}

func (b *Replica) handleUpdate(t *wire.Update) {
	if !b.observeEpoch(t.Epoch) {
		return
	}
	if t.AckRequested {
		// Acknowledge even duplicates: a retransmission means our
		// previous ack was lost in transit.
		b.send(&wire.UpdateAck{ObjectID: t.ObjectID, Seq: t.Seq})
	}
	// An update for an object whose registration was lost creates a
	// placeholder entry; the spec arrives with the primary's registration
	// retry.
	o := b.adm.placeholder(t.ObjectID)
	if !o.supersedes(t.Epoch, t.Seq) && !b.cfg.DisableEpochFencing {
		return // duplicate or reordered-stale transmission
	}
	if o.hasData && t.Epoch == o.recvEpoch && t.Seq > o.seq+1 {
		// Sequence gap within the epoch: at least one update was lost.
		if b.OnGap != nil {
			b.OnGap(o.id, o.seq, t.Seq)
		}
		if !b.cfg.DisableGapRecovery {
			b.maybeRequestRetransmit(o)
		}
	} else if o.retransAttempt > 0 && !b.cfg.Clock.Now().Before(o.retransNext) {
		// In-order traffic outlived the suppression window: the loss
		// episode is over, relax the gap-recovery backoff.
		o.retransAttempt = 0
	}
	b.apply(o, t.Epoch, t.Seq, time.Unix(0, t.Version), t.Payload)
}

// maybeRequestRetransmit sends a gap-recovery RetransmitRequest unless
// the per-object throttle still holds one outstanding. Updates carry full
// state, so the arrival that exposed the gap already made the image
// current — the request only accelerates the next refresh — which makes
// rate-limiting safe: under sustained loss the seed's one-request-per-gap
// behaviour amplified every gap into extra retransmissions whose own loss
// created further gaps (the request storm), without tightening staleness.
//
// The throttle window is measured on the wall clock, so a backward step
// (or a parked clock) stretches suppression until the clock catches up:
// gap recovery slows, nothing else — the state that arrived with the gap
// is already applied, and staleness accounting never reads this window.
func (b *Replica) maybeRequestRetransmit(o *object) {
	now := b.cfg.Clock.Now()
	if !b.cfg.DisableRetransmitThrottle && now.Before(o.retransNext) {
		b.retransSuppressed++
		return
	}
	b.send(&wire.RetransmitRequest{ObjectID: o.id, LastSeq: o.seq})
	b.retransRequested++
	if b.cfg.DisableRetransmitThrottle {
		return
	}
	base := b.cfg.retryBase()
	o.retransNext = now.Add(b.gapBackoff.DelayFrom(base, o.retransAttempt))
	o.retransAttempt++
}

// RetransmitStats reports gap-recovery request activity: requests sent
// and requests suppressed by the per-object throttle.
func (b *Replica) RetransmitStats() (requested, suppressed int) {
	return b.retransRequested, b.retransSuppressed
}

// handleModeChange records the primary overload governor's announced
// degradation rung for one object, deduplicating the loss-tolerant
// re-sends by (epoch, seq).
func (b *Replica) handleModeChange(t *wire.ModeChange) {
	if !b.observeEpoch(t.Epoch) {
		return
	}
	mode := ObjectMode(t.Mode)
	if mode < ModeNormal || mode > ModeShed {
		return // unknown rung from a newer revision: ignore
	}
	o := b.adm.placeholder(t.ObjectID)
	if t.Epoch == o.modeEpoch && t.Seq <= o.modeSeq {
		return // duplicate or stale reordering
	}
	o.modeEpoch = t.Epoch
	o.modeSeq = t.Seq
	if o.mode == mode {
		return
	}
	o.mode = mode
	o.modeBound = t.EffectiveBound
	if b.OnModeChange != nil {
		b.OnModeChange(o.id, o.spec.Name, mode, t.EffectiveBound)
	}
}

// apply installs a received image; it runs under Demux, which stamps the
// datagram's arrival.
func (b *Replica) apply(o *object, epoch uint32, seq uint64, version time.Time, payload []byte) {
	o.recvEpoch = epoch
	o.seq = seq
	o.version = version
	o.value = append(o.value[:0], payload...)
	o.hasData = true
	now := b.rxAt
	if o.catchingUp {
		// Catch-up semantics: the object is declared consistent again
		// only once an applied image lands within its backup bound — a
		// transferred value can itself be stale (the writer may have been
		// quiet), and serving it as consistent is exactly the hazard the
		// catch-up mark exists to prevent. Objects without a declared
		// bound catch up on any apply.
		staleness := now.Sub(version)
		if d := o.spec.Constraint.DeltaB; d <= 0 || staleness <= d {
			o.catchingUp = false
			b.catchingUp--
			if b.OnCatchUp != nil {
				b.OnCatchUp(o.id, o.spec.Name, staleness)
			}
		}
	}
	if b.OnApply != nil {
		b.OnApply(o.id, o.spec.Name, epoch, seq, version, now)
	}
	b.logApply(o, epoch, seq, version, payload)
}

func (b *Replica) send(msg wire.Message) {
	if b.sess == nil {
		return
	}
	b.sendOn(b.sess, msg)
}

// Specs returns the registered object specs in object-id (admission)
// order — the deterministic enumeration promotion-visible surfaces use.
func (b *Replica) Specs() []ObjectSpec {
	out := make([]ObjectSpec, 0, len(b.adm.byName))
	for _, id := range b.adm.orderedIDs() {
		if o := b.adm.objects[id]; o.spec.Name != "" {
			out = append(out, o.spec)
		}
	}
	return out
}

// SeedObject installs replicated state into a primary's table directly —
// an external checkpoint restore path (in-place promotion no longer needs
// it; the table carries over).
func (p *Replica) SeedObject(name string, value []byte, version time.Time) error {
	o, err := p.adm.byNameOrErr(name)
	if err != nil {
		return err
	}
	o.value = append([]byte(nil), value...)
	o.version = version
	o.hasData = true
	return nil
}
