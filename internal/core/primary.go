package core

import (
	"fmt"
	"hash/fnv"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/cpu"
	"rtpb/internal/resilience"
	"rtpb/internal/temporal"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// replicaPeer is the primary's bookkeeping for one backup replica. The
// paper's prototype uses a single backup; supporting several is listed as
// future work and implemented here: updates and state transfers are
// broadcast to every live peer, registrations and heartbeats are tracked
// per peer.
type replicaPeer struct {
	addr       xkernel.Addr
	sess       *xkernel.Session
	alive      bool
	pingSeq    uint64
	registered map[uint32]bool
	// observer marks a read-only subscriber: it receives the full update
	// stream and the anti-entropy exchange but never counts toward
	// quorums, critical-write waits, or the replication degree.
	observer bool

	// est tracks the link's RTT and counts losses from heartbeat and update
	// acks; every retry path toward this peer derives its timeout from it.
	est *resilience.Estimator
	// backoff spaces this peer's retransmissions with deterministic
	// jitter (seeded from the peer address, never the wall clock).
	backoff *resilience.Backoff
	// pingSent maps outstanding heartbeat sequence numbers to their send
	// instants for RTT sampling; pings overtaken by a newer ack count as
	// losses.
	pingSent map[uint64]time.Time
	// queue is the peer's bounded pending-update queue (normal
	// scheduling).
	queue *sendQueue
	// frame is the peer's reusable datagram builder: each transmission
	// slot's batch of updates for this peer is framed into it and flushed
	// as one datagram. Long-lived per peer so steady-state flushes do not
	// allocate.
	frame *wire.FrameBuilder

	// Chunked join/anti-entropy exchange state (transfer.go). A syncing
	// peer receives live updates but does not count toward critical-write
	// quorums or the reported replication degree until its exchange
	// completes.
	syncing     bool
	joinRetry   *clock.Event
	joinAttempt int
	xferGen     uint32
	xferChunk   uint32
	xferPending []uint32
	xferIDs     []uint32
	xferRetry   *clock.Event
	xferAttempt int
	xferSentAt  time.Time
	xferRetrans bool
	xferActive  bool
	xfer        TransferStats
}

// linkSeed derives a stable jitter seed for a peer from its address, so
// simulation replays are byte-identical while distinct peers still draw
// distinct jitter streams.
func linkSeed(local uint16, addr xkernel.Addr) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", local, addr)
	return h.Sum64()
}

func (p *Replica) addPeerLocked(addr xkernel.Addr) error {
	for _, pr := range p.peers {
		if pr.addr == addr {
			return fmt.Errorf("core: peer %s already attached", addr)
		}
	}
	sess, err := p.port.OpenFrom(RTPBPort, addr)
	if err != nil {
		return fmt.Errorf("core: open backup session to %s: %w", addr, err)
	}
	seed := linkSeed(RTPBPort, addr)
	backoff := resilience.NewBackoff(seed)
	backoff.Cap = retryCeiling
	p.peers = append(p.peers, &replicaPeer{
		addr:       addr,
		sess:       sess,
		alive:      true,
		registered: make(map[uint32]bool),
		est: resilience.NewEstimator(resilience.EstimatorConfig{
			InitialRTO: p.cfg.retryBase(),
			MinRTO:     max(2*p.cfg.Ell, 2*time.Millisecond),
			MaxRTO:     retryCeiling,
		}),
		backoff:  backoff,
		pingSent: make(map[uint64]time.Time),
		queue:    newSendQueue(p.cfg.SendQueueLimit),
		frame:    wire.NewFrameBuilder(),
	})
	return nil
}

// retryDelay is the adaptive retransmission delay toward one peer for the
// given zero-based attempt: the link estimator's RTO under capped
// exponential backoff with deterministic jitter. Before any RTT sample
// the RTO equals the protocol's static timeout, so adaptivity only
// changes behaviour once evidence exists.
func (p *Replica) retryDelay(pr *replicaPeer, attempt int) time.Duration {
	return pr.backoff.DelayFrom(pr.est.RTO(), attempt)
}

// Utilization reports the admitted task set's planned CPU utilization.
func (p *Replica) Utilization() float64 { return p.adm.utilization() }

// UtilizationWith reports the planned CPU utilization were spec admitted
// on top of the current table, without admitting it. The shard placement
// layer uses it as its bin-packing estimate; ok is false when no
// positive update period can be derived for the spec.
func (p *Replica) UtilizationWith(spec ObjectSpec) (float64, bool) {
	return p.adm.utilizationWith(spec)
}

// Peers reports the attached backup addresses.
func (p *Replica) Peers() []xkernel.Addr {
	out := make([]xkernel.Addr, len(p.peers))
	for i, pr := range p.peers {
		out[i] = pr.addr
	}
	return out
}

// CPU exposes the primary's processor model (for experiment probes).
func (p *Replica) CPU() *cpu.Resource { return p.proc }

// Register runs admission control for spec (Section 4.2). On acceptance
// the object's update task is scheduled and the registration is forwarded
// to every backup (with bounded retries) so they can reserve space. A
// name or size over the wire's limits is rejected: no backup could decode it.
func (p *Replica) Register(spec ObjectSpec) Decision {
	if !p.running {
		return Decision{Accepted: false, Reason: ErrStopped.Error()}
	}
	if p.role != RolePrimary {
		return Decision{Accepted: false, Reason: ErrNotPrimary.Error()}
	}
	if len(spec.Name) > wire.MaxString {
		return Decision{Accepted: false, Reason: fmt.Sprintf("object name of %d bytes exceeds the wire's %d-byte limit", len(spec.Name), wire.MaxString)}
	}
	if spec.Size > wire.MaxPayload {
		return Decision{Accepted: false, Reason: fmt.Sprintf("object %q size %d exceeds the wire's payload limit", spec.Name, spec.Size)}
	}
	o, d := p.adm.admit(spec)
	if !d.Accepted {
		return d
	}
	p.logSpec(o)
	p.startUpdateTask(o)
	p.retimeUpdateTasks()
	for _, pr := range p.peers {
		p.forwardRegistration(pr, o, maxRetries)
	}
	return d
}

// RegisterInterObject admits an inter-object temporal constraint between
// two registered objects, tightening their update tasks as needed
// (Section 3 / Section 4.2).
func (p *Replica) RegisterInterObject(c temporal.InterObjectConstraint) (Decision, error) {
	if !p.running {
		return Decision{Accepted: false, Reason: ErrStopped.Error()}, ErrStopped
	}
	if p.role != RolePrimary {
		return Decision{Accepted: false, Reason: ErrNotPrimary.Error()}, ErrNotPrimary
	}
	d, err := p.adm.admitInterObject(c)
	if err != nil {
		return d, err
	}
	p.retimeUpdateTasks()
	return d, nil
}

func (p *Replica) startUpdateTask(o *object) {
	switch p.cfg.Scheduling {
	case ScheduleCompressed:
		p.pumpOrder = append(p.pumpOrder, o.id)
		return
	case ScheduleWriteThrough:
		return // transmissions ride on client writes
	}
	// Spread initial offsets implicitly: the task starts one period out.
	o.task = clock.NewPeriodic(p.clk, o.updatePeriod, o.updatePeriod, func() {
		p.transmit(o, cpu.Low)
	})
}

// retimeUpdateTasks puts every running update task on the period the
// ledger now holds: an admission change may re-assign any object's
// period (δ_ij tightening, or S_r under DCS), and retiming an unchanged
// one is a no-op.
func (p *Replica) retimeUpdateTasks() {
	for _, o := range p.adm.objects {
		p.retimeUpdateTask(o)
	}
}

func (p *Replica) retimeUpdateTask(o *object) {
	if o.task == nil {
		return
	}
	period := o.updatePeriod
	if p.gov != nil {
		period = p.gov.periodFor(o, p.gov.mode(o.id))
	}
	o.task.SetPeriod(period)
}

// forwardRegistration sends the object's registration to one backup and
// retries until that backup's RegisterReply arrives or retries are
// exhausted.
func (p *Replica) forwardRegistration(pr *replicaPeer, o *object, retriesLeft int) {
	if pr.registered[o.id] || retriesLeft <= 0 || !p.running {
		return
	}
	p.sendOn(pr.sess, registration(p.epoch, o.id, wireSpec(o.spec)))
	attempt := maxRetries - retriesLeft
	p.clk.Schedule(p.retryDelay(pr, attempt), func() {
		if p.peerByAddr(pr.addr) != pr {
			return // peer set replaced while the retry was pending
		}
		p.forwardRegistration(pr, o, retriesLeft-1)
	})
}

// ClientWrite services one client write: the value is installed after the
// CPU cost of the operation, and done (optional) observes the response
// time. The version timestamp is the write's arrival instant — the moment
// the client sampled the external world. data is copied before
// ClientWrite returns, into the object's spare image (the one the last
// install replaced), so a steady-state write allocates nothing in
// proportion to its size; a value over wire.MaxPayload, which no backup
// could decode, finishes with ErrValueTooLarge and installs nothing.
func (p *Replica) ClientWrite(name string, data []byte, done func(latency time.Duration, err error)) {
	finish := func(lat time.Duration, err error) {
		if done != nil {
			done(lat, err)
		}
	}
	if !p.running {
		finish(0, ErrStopped)
		return
	}
	if p.role != RolePrimary {
		finish(0, ErrNotPrimary)
		return
	}
	o, err := p.adm.byNameOrErr(name)
	if err != nil {
		finish(0, err)
		return
	}
	if len(data) > wire.MaxPayload {
		finish(0, ErrValueTooLarge)
		return
	}
	arrival := p.clk.Now()
	// A second write queued before this one installs finds no spare and
	// takes a fresh buffer.
	value := append(o.spare[:0], data...)
	o.spare = nil
	// Client writes share the FIFO low-priority class with update
	// transmissions: on an overloaded, admission-control-disabled primary
	// the growing update backlog is exactly what degrades client response
	// time (the Figure 7 effect). The high-priority class is reserved for
	// loss recovery.
	p.proc.Submit(cpu.Low, p.cfg.Costs.clientCost(len(data)), func() {
		o.value, o.spare = value, o.value
		o.version = arrival
		o.hasData = true
		// The write-ahead append is enqueue-only: the client response
		// never waits on disk (durability is off the paper-critical
		// path; the temporal bounds are about staleness, not loss).
		p.logApply(o, p.epoch, o.lastSentSeq, arrival, value)
		if o.spec.Critical {
			// Hybrid path: the response waits for backup acknowledgement
			// (startCriticalWrite completes the callback).
			p.startCriticalWrite(o, arrival, func(lat time.Duration, err error) {
				if err == nil && p.OnClientDone != nil {
					p.OnClientDone(name, lat)
				}
				finish(lat, err)
			})
			p.maybeStartPump()
			return
		}
		lat := p.clk.Now().Sub(arrival)
		if p.OnClientDone != nil {
			p.OnClientDone(name, lat)
		}
		finish(lat, nil)
		if p.cfg.Scheduling == ScheduleWriteThrough {
			p.transmit(o, cpu.Low)
		}
		p.maybeStartPump()
	})
}

// anyPeerAlive reports whether at least one backup is believed alive.
func (p *Replica) anyPeerAlive() bool {
	for _, pr := range p.peers {
		if pr.alive {
			return true
		}
	}
	return false
}

// transmit queues one update transmission for the object and sends it
// when the CPU grants the time. Retransmissions requested by a backup run
// in the high-priority class (single-flight per object) so loss recovery
// is not delayed by the regular update backlog; regular transmissions go
// through the bounded per-peer send queues unless the queue bound is
// disabled.
func (p *Replica) transmit(o *object, prio cpu.Priority) {
	if !p.running || p.role != RolePrimary || !o.hasData || !p.anyPeerAlive() {
		return
	}
	if p.gov != nil && p.gov.shed(o.id) {
		return // the governor suspended this object's replication
	}
	if prio == cpu.High {
		if o.highPending {
			return // one recovery retransmission in flight is enough
		}
		o.highPending = true
		p.proc.Submit(cpu.High, p.cfg.Costs.sendCost(len(o.value)), func() {
			o.highPending = false
			p.sendNow(o)
		})
		return
	}
	if p.cfg.SendQueueLimit == UnboundedSendQueue {
		// Legacy unbounded buffering: every release queues its own CPU
		// work (the paper's prototype, and the Figure 7 overload mode).
		p.proc.Submit(cpu.Low, p.cfg.Costs.sendCost(len(o.value)), func() { p.sendNow(o) })
		return
	}
	queuedNew, attempted := false, false
	for _, pr := range p.peers {
		if !pr.alive {
			continue
		}
		attempted = true
		if !pr.queue.enqueue(o.id) {
			queuedNew = true
		}
	}
	if !attempted {
		return
	}
	if !queuedNew {
		// The previous release never reached the wire: a transmission
		// deadline miss, one of the governor's overload signals.
		p.deadlineMisses++
	}
	p.startDrain()
}

// startDrain kicks the send-queue drain pump if it is not already holding
// a CPU submission.
func (p *Replica) startDrain() {
	if p.drainActive || !p.running {
		return
	}
	p.drainActive = true
	p.drainStep()
}

// batchEntry is one object's coalesced transmission within a slot: the
// object and the peers whose queues held it.
type batchEntry struct {
	o       *object
	targets []*replicaPeer
}

// slot is a transmission slot being collected: its entries, the slab their
// targets are cut from, and their payload bytes, whose sendCost is the
// slot's declared cost.
type slot struct {
	entries []batchEntry
	peers   []*replicaPeer
	bytes   int
}

// add appends o's entry, targeting the peers appended to the slab since
// from: a capped sub-slice, because flushBatch filters targets in place.
func (s *slot) add(o *object, from int) {
	s.entries = append(s.entries, batchEntry{o: o, targets: s.peers[from:len(s.peers):len(s.peers)]})
	s.bytes += len(o.value)
}

// addLive appends o's entry targeting every live peer.
func (s *slot) addLive(o *object, peers []*replicaPeer) {
	from := len(s.peers)
	for _, pr := range peers {
		if pr.alive {
			s.peers = append(s.peers, pr)
		}
	}
	s.add(o, from)
}

// drainStep collects one transmission slot's batch — up to FrameBatch
// pending objects across the live peers' queues, in FIFO order — pays the
// batch's combined CPU send cost once, flushes one framed datagram per
// peer carrying every update bound for it, and chains the next step. One
// submission is outstanding at a time, so client writes arriving
// meanwhile interleave fairly in the low-priority FIFO instead of waiting
// behind a pre-queued backlog.
func (p *Replica) drainStep() {
	if !p.running || p.role != RolePrimary {
		p.drainActive = false
		return
	}
	s := p.collectBatch()
	if len(s.entries) == 0 {
		p.drainActive = false
		return
	}
	p.proc.Submit(cpu.Low, p.cfg.Costs.sendCost(s.bytes), func() {
		p.flushBatch(s.entries)
		p.drainStep()
	})
}

// collectBatch drains up to cfg.FrameBatch distinct objects (and at most
// ~frameBytes of payload) from the live peers' queues. An object is
// removed from every queue that held it, so each slot transmits at most
// one update per object — the frame-level mirror of the send queue's
// coalescing invariant.
func (p *Replica) collectBatch() (s slot) {
	for len(s.entries) < p.cfg.FrameBatch {
		var id uint32
		found := false
		for _, pr := range p.peers {
			if !pr.alive {
				continue
			}
			if h, ok := pr.queue.head(); ok {
				id, found = h, true
				break
			}
		}
		if !found {
			break
		}
		o, ok := p.adm.objects[id]
		if ok && len(s.entries) > 0 && s.bytes+len(o.value) > frameBytes {
			break // over the frame byte budget: the next slot takes it
		}
		from := len(s.peers)
		for _, pr := range p.peers {
			if pr.queue.remove(id) && pr.alive {
				s.peers = append(s.peers, pr)
			}
		}
		if ok && o.hasData && len(s.peers) > from {
			s.add(o, from)
		}
	}
	return s
}

// flushBatch emits one transmission slot: each entry's current state is
// encoded once (append-style, into the replica's reused buffer — zero
// allocations in steady state) and framed into every target peer's
// builder, then each peer receives a single datagram carrying its whole
// batch. A builder holding exactly one message emits the bare unframed
// encoding, so single-update slots stay byte-identical to the pre-framing
// wire format. The slot goes out at one instant, so one clock read stamps
// every update in it. Must run after the batch's CPU cost has been paid.
func (p *Replica) flushBatch(entries []batchEntry) {
	if !p.running || p.role != RolePrimary {
		// A queued slot whose replica stopped serving while it waited must not
		// fire: bumping seq here would corrupt the backup-role fence.
		return
	}
	for _, pr := range p.peers {
		pr.frame.Reset()
	}
	p.encBuf = p.encBuf[:0]
	now := p.clk.Now()
	fired := entries[:0]
	for _, e := range entries {
		o := e.o
		if !o.hasData {
			continue
		}
		live := e.targets[:0]
		for _, pr := range e.targets {
			if pr.alive {
				live = append(live, pr)
			}
		}
		if len(live) == 0 {
			continue
		}
		enc := p.stampUpdate(o, now)
		for _, pr := range live {
			// AppendEncoded copies immediately, so a later growth of
			// encBuf cannot invalidate what the builders hold.
			pr.frame.AppendEncoded(enc)
		}
		fired = append(fired, e)
	}
	for _, pr := range p.peers {
		if dg := pr.frame.Datagram(); dg != nil {
			p.push(pr.sess, dg)
		}
	}
	if p.OnSend != nil {
		for _, e := range fired {
			p.OnSend(e.o.id, e.o.spec.Name, e.o.lastSentSeq, e.o.lastSentVersion)
		}
	}
}

// sendNow sends o's current state to every live backup in a slot of its
// own, which goes out unframed; it must run after the CPU cost is paid.
func (p *Replica) sendNow(o *object) {
	var s slot
	s.addLive(o, p.peers)
	p.flushBatch(s.entries)
}

// stampUpdate numbers the object's next update, records it as the last
// one sent at now and appends its encoding to encBuf, which it returns.
func (p *Replica) stampUpdate(o *object, now time.Time) []byte {
	o.seq++
	o.lastSentSeq = o.seq
	o.lastSentVersion = o.version
	o.lastSentAt = now
	p.updMsg = wire.Update{
		Epoch:    p.epoch,
		ObjectID: o.id,
		Seq:      o.seq,
		Version:  o.version.UnixNano(),
		Payload:  o.value,
	}
	start := len(p.encBuf)
	p.encBuf = wire.AppendEncode(p.encBuf, &p.updMsg)
	return p.encBuf[start:]
}

// maybeStartPump starts the compressed-scheduling pump if it should run:
// compressed mode, data available, a backup alive.
func (p *Replica) maybeStartPump() {
	if p.cfg.Scheduling != ScheduleCompressed || p.pumpActive || !p.running || p.role != RolePrimary || !p.anyPeerAlive() {
		return
	}
	p.pumpActive = true
	p.pumpStep()
}

// pumpStep transmits the next objects in round-robin order and chains the
// following step — the "schedule as many updates as the resources allow"
// discipline of compressed scheduling. It runs in the processor's idle
// class: queued with the writes on the modelled processor, and on a live
// one paced by what its sends measure (almost all one syscall, so a live
// step frames a whole round within frameBytes). A modelled step sends one:
// Figure 12's compressed series drops to zero at every window if framed.
func (p *Replica) pumpStep() {
	if !p.running || p.role != RolePrimary || !p.anyPeerAlive() || p.cfg.Scheduling != ScheduleCompressed {
		p.pumpActive = false
		return
	}
	width := 1
	if p.proc.Live() {
		width = len(p.pumpOrder)
	}
	s := p.collectPump(width)
	if len(s.entries) == 0 {
		p.pumpActive = false
		return
	}
	p.proc.Submit(cpu.Idle, p.cfg.Costs.sendCost(s.bytes), p.pumpSent)
}

// collectPump refills the pump's reused slot with up to width objects in
// round-robin order, each at most once, bound for every live peer; it
// stops at the one that would push the frame past frameBytes.
func (p *Replica) collectPump(width int) *slot {
	s := &p.pump
	s.entries, s.peers, s.bytes = s.entries[:0], s.peers[:0], 0
	for tries := 0; tries < len(p.pumpOrder) && len(s.entries) < width; tries++ {
		id := p.pumpOrder[p.pumpNext%len(p.pumpOrder)]
		o, ok := p.adm.objects[id]
		if ok && len(s.entries) > 0 && s.bytes+len(o.value)+(len(s.entries)+1)*frameEntryBytes > frameBytes {
			break // over the frame byte budget: the next step starts here
		}
		p.pumpNext++
		if ok && o.hasData && (p.gov == nil || !p.gov.shed(id)) {
			s.addLive(o, p.peers)
		}
	}
	return s
}

// SetPeerAlive informs the primary of one backup's liveness (driven by a
// failure detector). Declaring a peer dead stops transmissions to it; a
// peer coming (back) alive is reintegrated through the chunked
// anti-entropy exchange (Section 4.4's recruitment, made resumable) and
// only counts toward quorums again once it completes.
func (p *Replica) SetPeerAlive(addr xkernel.Addr, alive bool) {
	pr := p.peerByAddr(addr)
	if pr == nil || pr.alive == alive {
		return
	}
	pr.alive = alive
	if alive {
		p.beginJoin(pr)
		p.maybeStartPump()
	} else {
		// Do not hold critical writes hostage to a dead backup, and drop
		// its queued transmissions and any in-flight exchange — the
		// reintegration transfer on revival supersedes them.
		p.dropPeerFromCriticalWaits(addr)
		pr.queue.clear()
		p.cancelTransfer(pr)
	}
}

// SetBackupAlive applies SetPeerAlive to every attached backup — the
// single-backup deployments of the paper use this form.
func (p *Replica) SetBackupAlive(alive bool) {
	for _, pr := range p.peers {
		p.SetPeerAlive(pr.addr, alive)
	}
}

// BackupAlive reports whether any backup is believed alive and has
// completed its anti-entropy exchange — a peer still catching up holds
// arbitrarily stale state and is not counted as effective redundancy.
func (p *Replica) BackupAlive() bool { return p.SyncedPeers() > 0 }

func (p *Replica) peerByAddr(addr xkernel.Addr) *replicaPeer {
	for _, pr := range p.peers {
		if pr.addr == addr {
			return pr
		}
	}
	return nil
}

// AddPeer attaches an additional backup replica and drives it to parity
// through the chunked join exchange: the JoinAccept carries every
// object's spec, the peer's digest reports what it already holds, and
// chunks stream the rest. Until the exchange completes the peer is
// syncing and does not count toward quorums.
func (p *Replica) AddPeer(addr xkernel.Addr) error {
	if !p.running {
		return ErrStopped
	}
	if p.role != RolePrimary {
		return ErrNotPrimary
	}
	if err := p.addPeerLocked(addr); err != nil {
		return err
	}
	p.beginJoin(p.peers[len(p.peers)-1])
	p.maybeStartPump()
	return nil
}

// RemovePeer detaches a backup replica (e.g. one that failed
// permanently).
func (p *Replica) RemovePeer(addr xkernel.Addr) {
	for i, pr := range p.peers {
		if pr.addr == addr {
			p.cancelTransfer(pr)
			pr.sess.Close()
			p.peers = append(p.peers[:i], p.peers[i+1:]...)
			return
		}
	}
}

// SetPeer replaces the entire peer set with one new backup (used by the
// single-backup failover path when recruiting a replacement).
func (p *Replica) SetPeer(peer xkernel.Addr) error {
	if !p.running {
		return ErrStopped
	}
	if p.role != RolePrimary {
		return ErrNotPrimary
	}
	old := p.peers
	p.peers = nil
	if err := p.addPeerLocked(peer); err != nil {
		p.peers = old
		return err
	}
	for _, pr := range old {
		p.cancelTransfer(pr)
		pr.sess.Close()
	}
	p.beginJoin(p.peers[0])
	p.maybeStartPump()
	return nil
}

// SendPingTo emits one heartbeat to the named backup and returns its
// per-peer sequence number.
func (p *Replica) SendPingTo(addr xkernel.Addr) (uint64, error) {
	pr := p.peerByAddr(addr)
	if pr == nil {
		return 0, fmt.Errorf("core: no peer %s", addr)
	}
	pr.pingSeq++
	pr.pingSent[pr.pingSeq] = p.clk.Now()
	if len(pr.pingSent) > 64 {
		for s := range pr.pingSent {
			if s+64 <= pr.pingSeq {
				delete(pr.pingSent, s)
			}
		}
	}
	p.sendOn(pr.sess, &wire.Ping{Seq: pr.pingSeq, From: wire.RolePrimary})
	return pr.pingSeq, nil
}

// observePingAck feeds one heartbeat ack into the peer's link estimator:
// the answered ping yields an RTT sample, and any older pings still
// outstanding are counted as losses (either they or their acks vanished).
func (p *Replica) observePingAck(pr *replicaPeer, seq uint64) {
	sentAt, ok := pr.pingSent[seq]
	if !ok {
		return
	}
	delete(pr.pingSent, seq)
	p.sampleRTT(pr, sentAt)
	for s := range pr.pingSent {
		if s < seq {
			delete(pr.pingSent, s)
			pr.est.SampleLoss()
		}
	}
}

// sampleRTT feeds one measured round trip (now minus sentAt) into the
// peer's link estimator, guarding against hostile clocks: a backward
// step between send and ack makes the apparent RTT negative, and folding
// it in — even clamped to zero — would drag the smoothed RTT and every
// adaptive timeout derived from it toward a value this link never
// exhibited. Such an exchange counts as delivered with no usable RTT,
// Karn's rule extended to clock faults.
func (p *Replica) sampleRTT(pr *replicaPeer, sentAt time.Time) {
	if rtt := p.clk.Now().Sub(sentAt); rtt >= 0 {
		pr.est.SampleRTT(rtt)
	} else {
		pr.est.SampleAck()
	}
}

// demuxPrimary handles inbound RTPB datagrams while serving as primary.
func (p *Replica) demuxPrimary(msg wire.Message, from xkernel.Addr) {
	switch t := msg.(type) {
	case *wire.RetransmitRequest:
		if p.OnRetransmitRequest != nil {
			p.OnRetransmitRequest(t.ObjectID)
		}
		if o, ok := p.adm.objects[t.ObjectID]; ok {
			p.transmit(o, cpu.High)
		}
	case *wire.ModeChange:
		// Primaries govern, they are not governed; a ModeChange landing
		// here is a stale datagram from a previous role. Drop it.
	case *wire.RegisterReply:
		if pr := p.peerByAddr(from); pr != nil {
			pr.registered[t.ObjectID] = true
		}
	case *wire.Ping:
		p.replyTo(from, &wire.PingAck{Seq: t.Seq, From: wire.RolePrimary})
		if t.From == wire.RoleObserver {
			// An observer heartbeat doubles as a chain-position probe:
			// the primary is the root of every fan-out tree, so it
			// advertises depth 0 and no accumulated uncertainty.
			p.replyTo(from, &wire.ChainStatus{Epoch: p.epoch, Depth: 0, Theta: 0})
		}
	case *wire.TimeSync:
		if t.Receive == 0 && t.Transmit == 0 {
			// A backup's clock-sync probe: echo it with this node's
			// stamps (receive == transmit under the serial executor; the
			// estimator's rtt formula nets hold time out regardless).
			now := p.clk.Now().UnixNano()
			p.replyTo(from, &wire.TimeSync{Seq: t.Seq, From: wire.RolePrimary,
				Originate: t.Originate, Receive: now, Transmit: now})
		} else {
			// A late echo to a probe we sent while still shadowing.
			p.observeTimeSync(t)
		}
	case *wire.PingAck:
		if pr := p.peerByAddr(from); pr != nil {
			p.observePingAck(pr, t.Seq)
		}
		if p.OnPingAck != nil {
			p.OnPingAck(t.Seq)
		}
	case *wire.UpdateAck:
		p.handleUpdateAck(from, t)
	case *wire.JoinRequest:
		p.handleJoinRequest(from, t)
	case *wire.StateDigest:
		p.handleStateDigest(from, t)
	case *wire.StateChunkAck:
		p.handleStateChunkAck(from, t)
	}
}

// broadcast sends a message to every live peer, encoded once.
func (p *Replica) broadcast(msg wire.Message) {
	p.encBuf = wire.AppendEncode(p.encBuf[:0], msg)
	for _, pr := range p.peers {
		if pr.alive {
			p.push(pr.sess, p.encBuf)
		}
	}
}

// sendOn encodes msg into the reused buffer and pushes it on sess. Sent
// to a peer's session it ignores the peer's liveness mark (registration
// retries and recruitment probes must reach a peer not yet heard from).
func (r *Replica) sendOn(sess *xkernel.Session, msg wire.Message) {
	r.encBuf = wire.AppendEncode(r.encBuf[:0], msg)
	r.push(sess, r.encBuf)
}

// push sends one encoding on sess through the reused outbound message.
// The transport is done with the bytes when Push returns
// (xkernel.Transport), so the message and enc are free again after it.
func (r *Replica) push(sess *xkernel.Session, enc []byte) {
	r.out.Reset(enc)
	_ = sess.Push(&r.out)
}

// replyTo answers a sender that may not be an attached peer (e.g. a ping
// from a replica probing us).
func (p *Replica) replyTo(addr xkernel.Addr, msg wire.Message) {
	if pr := p.peerByAddr(addr); pr != nil {
		p.sendOn(pr.sess, msg)
		return
	}
	sess, err := p.port.OpenFrom(RTPBPort, addr)
	if err != nil {
		return
	}
	defer sess.Close()
	p.sendOn(sess, msg)
}

// Spec returns the registered spec for an object name.
func (p *Replica) Spec(name string) (ObjectSpec, bool) {
	o, err := p.adm.byNameOrErr(name)
	if err != nil {
		return ObjectSpec{}, false
	}
	return o.spec, true
}

// UpdatePeriod reports the admitted backup-update period r_i of an
// object.
func (p *Replica) UpdatePeriod(name string) (time.Duration, bool) {
	o, err := p.adm.byNameOrErr(name)
	if err != nil {
		return 0, false
	}
	return o.updatePeriod, true
}

// Modes returns every admitted object's current degradation rung keyed by
// name.
func (p *Replica) Modes() map[string]ObjectMode {
	out := make(map[string]ObjectMode, len(p.adm.objects))
	for name, id := range p.adm.byName {
		if p.gov == nil {
			out[name] = ModeNormal
		} else {
			out[name] = p.gov.mode(id)
		}
	}
	return out
}

// GovernorStats reports the overload governor's ladder activity (zero on
// an ungoverned primary).
func (p *Replica) GovernorStats() GovernorStats {
	if p.gov == nil {
		return GovernorStats{}
	}
	return p.gov.stats
}

// PeerLinkStats describes the adaptive link state toward one backup.
type PeerLinkStats struct {
	// SRTT is the link estimator's smoothed round-trip time.
	SRTT time.Duration
	// Acks is the raw count of delivered observations.
	Acks uint64
	// Queue holds the queue's lifetime counters.
	Queue SendQueueStats
}

// PeerLink reports the link estimator and send-queue state toward one
// attached backup.
func (p *Replica) PeerLink(addr xkernel.Addr) (PeerLinkStats, bool) {
	pr := p.peerByAddr(addr)
	if pr == nil {
		return PeerLinkStats{}, false
	}
	acks, _ := pr.est.Samples()
	return PeerLinkStats{SRTT: pr.est.SRTT(), Acks: acks, Queue: pr.queue.stats}, true
}
