package core

import (
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/cpu"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// This file implements the hybrid active/passive path the paper lists as
// future work (Section 7): objects registered with Critical=true get
// active-replication write semantics — the client's response waits until
// every live backup acknowledges the update — while the rest of the
// object table keeps RTPB's decoupled passive scheduling. The two styles
// coexist in one primary, sharing the CPU, the wire format, and the
// failure detector.

// pendingAck tracks one critical write awaiting acknowledgement.
type pendingAck struct {
	seq     uint64
	version time.Time
	payload []byte
	waiting map[xkernel.Addr]bool
	arrival time.Time
	done    func(latency time.Duration, err error)
	retry   *clock.Event
	retries int
	// sentAt is the instant the most recent transmission entered the
	// network; retransmitted marks the exchange tainted for RTT sampling
	// (Karn's rule: an ack that may answer either transmission carries no
	// usable round-trip measurement).
	sentAt        time.Time
	retransmitted bool
}

// startCriticalWrite transmits the just-installed value with an
// acknowledgement request and registers the pending completion. It runs
// on the clock executor after the client op's CPU cost.
func (p *Replica) startCriticalWrite(o *object, arrival time.Time, done func(time.Duration, error)) {
	finish := func(lat time.Duration, err error) {
		if done != nil {
			done(lat, err)
		}
	}
	waiting := make(map[xkernel.Addr]bool)
	for _, pr := range p.peers {
		// A syncing peer is excluded from the quorum: it may hold
		// arbitrarily stale state, so its ack proves nothing about
		// redundancy (it still receives the update through the regular
		// broadcast, which is what completes its catch-up). Observer
		// peers are read-only bystanders: their acks are never
		// solicited and never count.
		if pr.alive && !pr.syncing && !pr.observer {
			waiting[pr.addr] = true
		}
	}
	if len(waiting) == 0 {
		// No live backup: degrade to local completion, like the paper's
		// primary continuing service while recruiting.
		finish(p.clk.Now().Sub(arrival), nil)
		return
	}
	o.seq++
	pa := &pendingAck{
		seq:     o.seq,
		version: o.version,
		payload: append([]byte(nil), o.value...),
		waiting: waiting,
		arrival: arrival,
		done:    done,
	}
	if o.pendingAcks == nil {
		o.pendingAcks = make(map[uint64]*pendingAck)
	}
	o.pendingAcks[pa.seq] = pa
	p.transmitCritical(o, pa)
}

// transmitCritical pays the CPU cost and emits the acked update to every
// peer still waited on, then arms the retransmission timer. Critical
// transmissions use the high-priority CPU class: the client is blocked on
// them.
func (p *Replica) transmitCritical(o *object, pa *pendingAck) {
	if !p.running {
		return
	}
	cost := time.Duration(len(pa.waiting)) * p.cfg.Costs.sendCost(len(pa.payload))
	p.proc.Submit(cpu.High, cost, func() {
		if !p.running || o.pendingAcks[pa.seq] != pa {
			return // completed or abandoned while queued
		}
		o.lastSentSeq = pa.seq
		o.lastSentVersion = pa.version
		o.lastSentAt = p.clk.Now()
		pa.sentAt = o.lastSentAt
		if pa.retries > 0 {
			pa.retransmitted = true
		}
		msg := &wire.Update{
			Epoch:        p.epoch,
			ObjectID:     o.id,
			Seq:          pa.seq,
			Version:      pa.version.UnixNano(),
			AckRequested: true,
			Payload:      pa.payload,
		}
		p.encBuf = wire.AppendEncode(p.encBuf[:0], msg)
		for addr := range pa.waiting {
			if pr := p.peerByAddr(addr); pr != nil {
				p.push(pr.sess, p.encBuf)
			}
		}
		if p.OnSend != nil {
			p.OnSend(o.id, o.spec.Name, pa.seq, pa.version)
		}
		pa.retry = p.clk.Schedule(p.criticalRetryDelay(pa), func() {
			p.criticalTimeout(o, pa)
		})
	})
}

// criticalRetryDelay is the adaptive ack timeout for one critical write:
// the slowest waited-on peer's RTO under that peer's backoff, falling
// back to the static retryBase when no link is attributable.
func (p *Replica) criticalRetryDelay(pa *pendingAck) time.Duration {
	var d time.Duration
	for _, pr := range p.peers {
		if !pa.waiting[pr.addr] {
			continue
		}
		if v := p.retryDelay(pr, pa.retries); v > d {
			d = v
		}
	}
	if d == 0 {
		d = p.cfg.retryBase()
	}
	return d
}

func (p *Replica) criticalTimeout(o *object, pa *pendingAck) {
	if o.pendingAcks[pa.seq] != pa {
		return
	}
	// Every peer still waited on failed to ack inside the timeout: loss
	// evidence for those links.
	for _, pr := range p.peers {
		if pa.waiting[pr.addr] {
			pr.est.SampleLoss()
		}
	}
	pa.retries++
	if pa.retries >= maxRetries {
		delete(o.pendingAcks, pa.seq)
		if pa.done != nil {
			pa.done(p.clk.Now().Sub(pa.arrival), ErrAckTimeout)
		}
		return
	}
	p.transmitCritical(o, pa)
}

// handleUpdateAck feeds a backup's acknowledgement into the pending
// critical write it answers.
func (p *Replica) handleUpdateAck(from xkernel.Addr, t *wire.UpdateAck) {
	o, ok := p.adm.objects[t.ObjectID]
	if !ok || o.pendingAcks == nil {
		return
	}
	pa, ok := o.pendingAcks[t.Seq]
	if !ok {
		return // late ack after completion
	}
	if pr := p.peerByAddr(from); pr != nil && pa.waiting[from] {
		if pa.retransmitted {
			pr.est.SampleAck() // Karn: delivered, but the RTT is ambiguous
		} else {
			p.sampleRTT(pr, pa.sentAt)
		}
	}
	delete(pa.waiting, from)
	if len(pa.waiting) > 0 {
		return
	}
	p.completeCritical(o, pa, nil)
}

func (p *Replica) completeCritical(o *object, pa *pendingAck, err error) {
	delete(o.pendingAcks, pa.seq)
	if pa.retry != nil {
		pa.retry.Cancel()
	}
	if pa.done != nil {
		pa.done(p.clk.Now().Sub(pa.arrival), err)
	}
}

// dropPeerFromCriticalWaits removes a dead peer from every pending
// critical write so the client is not held hostage by a failed backup.
func (p *Replica) dropPeerFromCriticalWaits(addr xkernel.Addr) {
	for _, o := range p.adm.objects {
		for _, pa := range o.pendingAcks {
			if !pa.waiting[addr] {
				continue
			}
			delete(pa.waiting, addr)
			if len(pa.waiting) == 0 {
				p.completeCritical(o, pa, nil)
			}
		}
	}
}
