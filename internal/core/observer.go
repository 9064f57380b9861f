package core

import (
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// This file implements the observer role of the Replica state machine: a
// read-only replica subscribed to an upstream (a primary or another
// observer) that applies the replicated update stream through the
// backup-role handlers, serves certificate reads with chain-accumulated
// uncertainty (cert.go), and re-broadcasts the stream to downstream
// subscribers of its own — the chained fan-out tree. Observers are
// excluded from everything that decides the cluster's fate: quorums,
// critical-write waits, the replication degree, failover candidacy, and
// repair recruitment. Promote rejects them (ErrNotBackup), so no
// detector wiring can accidentally elect one.

// Subscribe starts the observer's own attach loop: a JoinRequest every
// interval until the chunked exchange completes, and a heartbeat every
// interval at offset interval/2 that carries the clock-sync probe and
// solicits the upstream's ChainStatus, so certificates compound depth
// and θ honestly. Stop cancels both.
func (r *Replica) Subscribe(interval time.Duration) {
	r.subTasks = append(r.subTasks,
		clock.NewPeriodic(r.clk, 0, interval, func() {
			if !r.joined {
				r.Join()
			}
		}),
		clock.NewPeriodic(r.clk, interval/2, interval, func() { r.SendPing() }))
}

// demuxObserver handles inbound RTPB datagrams while observing. Traffic
// from the upstream flows through the backup-role handlers — the same
// fence/supersede/apply/catch-up path a backup runs — and is then
// broadcast to every live downstream subscriber verbatim: epoch,
// sequence and version stamps ride unchanged. An observer never
// renumbers the stream — relabeling would reset the supersedes order and
// launder the staleness the version stamp honestly carries — and never
// bumps the shared object table's sequence counters; that is the serving
// primary's sole privilege. Traffic from downstream subscribers flows
// through the primary-side join/anti-entropy handlers. The two role
// halves compose: an observer is a shadow toward its upstream and a
// fan-out node toward its own subscribers.
func (r *Replica) demuxObserver(msg wire.Message, from xkernel.Addr) {
	switch t := msg.(type) {
	// --- upstream stream: apply locally, then re-broadcast downstream ---
	case *wire.Register:
		relay := r.wouldAcceptEpoch(t.Epoch)
		r.handleRegister(t)
		if relay {
			r.broadcast(t)
		}
	case *wire.Update:
		relay := r.wouldAcceptEpoch(t.Epoch)
		r.handleUpdate(t)
		if relay {
			if t.AckRequested {
				// Acks answer the primary's critical-write quorum; a
				// relay must not solicit downstream acks toward us.
				fwd := *t
				fwd.AckRequested = false
				r.broadcast(&fwd)
			} else {
				r.broadcast(t)
			}
		}
	case *wire.Unregister:
		relay := r.wouldAcceptEpoch(t.Epoch)
		r.handleUnregister(t)
		if relay {
			r.broadcast(t)
		}
	case *wire.ModeChange:
		relay := r.wouldAcceptEpoch(t.Epoch)
		r.handleModeChange(t)
		if relay {
			// Downstream bounds must track the governor too: a shed
			// object's certificate may promise nothing anywhere in the
			// tree.
			r.broadcast(t)
		}
	case *wire.JoinAccept:
		relay := r.wouldAcceptEpoch(t.Epoch)
		r.handleJoinAccept(t)
		if relay {
			// Specs adopted through our own join never rode a live Register
			// broadcast, so subscribers already attached below us have not
			// heard of them: replay each downstream as a registration.
			// handleRegister is idempotent, so duplicates are harmless.
			for _, s := range t.Specs {
				r.broadcast(registration(t.Epoch, s.ObjectID, s.Spec))
			}
		}
	case *wire.StateChunk:
		r.handleStateChunk(t)
	case *wire.ChainStatus:
		if r.observeEpoch(t.Epoch) {
			r.upstreamDepth = t.Depth
			r.upstreamTheta = t.Theta
		}
	case *wire.PingAck:
		if r.OnPingAck != nil {
			r.OnPingAck(t.Seq)
		}
	case *wire.TimeSync:
		if t.Receive == 0 && t.Transmit == 0 {
			// A downstream observer's clock-sync probe: echo it with our
			// stamps (receive == transmit under the serial executor; the
			// estimator's rtt formula nets hold time out regardless).
			now := r.clk.Now().UnixNano()
			r.replyTo(from, &wire.TimeSync{Seq: t.Seq, From: wire.RoleObserver,
				Originate: t.Originate, Receive: now, Transmit: now})
		} else {
			// The echo to a probe we sent upstream.
			r.observeTimeSync(t)
		}
	case *wire.Ping:
		r.replyTo(from, &wire.PingAck{Seq: t.Seq, From: wire.RoleObserver})
		if t.From == wire.RoleObserver {
			// A downstream observer heartbeat: advertise our chain
			// position so its certificates compound ours — depth plus
			// one hop, θ plus its own link's estimate.
			r.replyTo(from, &wire.ChainStatus{Epoch: r.epoch,
				Depth: uint32(r.chainDepth()), Theta: r.chainTheta()})
		}

	// --- downstream subscribers: the primary-side join exchange ---
	case *wire.JoinRequest:
		r.handleJoinRequest(from, t)
	case *wire.StateDigest:
		r.handleStateDigest(from, t)
	case *wire.StateChunkAck:
		r.handleStateChunkAck(from, t)
	case *wire.RegisterReply:
		if pr := r.peerByAddr(from); pr != nil {
			pr.registered[t.ObjectID] = true
		}
	case *wire.RetransmitRequest:
		// Downstream gap recovery: re-send the current image as-is. The
		// observer never renumbers the stream — the relayed (epoch, seq)
		// keep the downstream supersedes order aligned with the
		// primary's.
		if r.OnRetransmitRequest != nil {
			r.OnRetransmitRequest(t.ObjectID)
		}
		if o, ok := r.adm.objects[t.ObjectID]; ok && o.hasData {
			if pr := r.peerByAddr(from); pr != nil {
				r.sendOn(pr.sess, &wire.Update{Epoch: o.recvEpoch, ObjectID: o.id,
					Seq: o.seq, Version: o.version.UnixNano(), Payload: o.value})
			}
		}
	}
}

// wouldAcceptEpoch mirrors observeEpoch's fencing verdict without
// adopting anything: the relay decision must match what the backup-role
// handler it precedes is about to do with the message.
func (r *Replica) wouldAcceptEpoch(epoch uint32) bool {
	return r.cfg.DisableEpochFencing || epoch == 0 || epoch >= r.epoch
}

// ObserverPeers reports how many attached peers subscribed as read-only
// observers. They receive the update stream but never count toward
// SyncedPeers, critical-write quorums, or the replication degree.
func (r *Replica) ObserverPeers() int {
	n := 0
	for _, pr := range r.peers {
		if pr.observer {
			n++
		}
	}
	return n
}
