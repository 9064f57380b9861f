package core

import (
	"sort"
	"time"

	"rtpb/internal/cpu"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// This file implements the repair cycle's anti-entropy exchange: the
// digest-based, chunked, resumable state transfer that brings a recruited
// or rejoining backup to parity with the primary — the only state
// transfer the replica speaks (wire.StateTransfer survives decode-only).
//
// The exchange, in both the primary-initiated (AddPeer/SetPeer/
// SetPeerAlive) and joiner-initiated (JoinRequest) directions:
//
//	primary                                backup
//	  | JoinAccept{epoch, specs} ----------> |  admit specs, mark every
//	  |     (retried on adaptive RTO)        |  object catching-up
//	  | <---------- StateDigest{per-object (epoch, seq, version)}
//	  | diff digest against table            |     (retried while joining)
//	  | StateChunk{gen, 0, entries} -------> |  apply + ack
//	  | <-------------- StateChunkAck{gen,0} |
//	  |      ... stop-and-wait ...           |
//	  | StateChunk{gen, n, Final} ---------> |  apply, join complete
//	  | <-------------- StateChunkAck{gen,n} |
//	  | peer synced: counts toward quorums   |
//
// Any interruption — lost accept, lost chunk beyond its retry budget, a
// peer restart mid-stream — is healed by the backup's digest retry: a
// fresh digest enumerates exactly what survived, and the next chunk
// generation streams only the remainder. Transfers resume; they never
// restart from scratch.

// TransferStats counts one peer's anti-entropy exchange activity.
type TransferStats struct {
	// JoinAccepts counts JoinAccept transmissions (including retries).
	JoinAccepts int
	// Digests counts StateDigests received.
	Digests int
	// ChunkRetransmits counts chunks re-sent on the adaptive RTO.
	ChunkRetransmits int
	// EntriesSent counts distinct entries streamed (first transmissions
	// only; a retransmitted chunk does not recount its entries).
	EntriesSent int
	// EntriesSkipped counts entries the peer's digest proved current, so
	// they were never streamed — the resumability win.
	EntriesSkipped int
	// Completions counts completed exchanges (final chunk acknowledged
	// while the peer was syncing).
	Completions int
}

// beginJoin starts (or restarts) the chunked join exchange toward one
// peer. Until it completes the peer is marked syncing: it receives live
// update traffic — fresh updates are exactly what completes its
// per-object catch-up — but is not counted toward critical-write quorums
// or the reported replication degree.
func (p *Replica) beginJoin(pr *replicaPeer) {
	p.cancelTransfer(pr)
	pr.syncing = true
	pr.joinAttempt = 0
	// A peer entering (re)sync holds stale state; do not let an old
	// critical write's fate ride on it.
	p.dropPeerFromCriticalWaits(pr.addr)
	p.sendJoinAccept(pr)
}

// cancelTransfer stops the peer's join/chunk timers and abandons any
// in-flight generation (the syncing mark is left as-is).
func (p *Replica) cancelTransfer(pr *replicaPeer) {
	if pr.joinRetry != nil {
		pr.joinRetry.Cancel()
		pr.joinRetry = nil
	}
	if pr.xferRetry != nil {
		pr.xferRetry.Cancel()
		pr.xferRetry = nil
	}
	pr.xferActive = false
	pr.xferPending = nil
	pr.xferIDs = nil
}

// sendJoinAccept pushes the admission table to the joiner and retries on
// the adaptive RTO until the joiner's StateDigest arrives (the digest is
// the accept's acknowledgement) or the retry budget runs out.
func (p *Replica) sendJoinAccept(pr *replicaPeer) {
	if !p.running || p.peerByAddr(pr.addr) != pr || !pr.syncing || pr.xferActive {
		return
	}
	if pr.joinAttempt >= maxRetries {
		// The joiner never answered. Leave it marked syncing (it must not
		// count toward quorums holding arbitrarily stale state) and let the
		// joiner's own JoinRequest retry restart the exchange.
		return
	}
	acc := &wire.JoinAccept{Epoch: p.epoch}
	for _, o := range p.adm.ordered() {
		acc.Specs = append(acc.Specs, wire.SpecEntry{ObjectID: o.id, Spec: wireSpec(o.spec)})
		// Spec delivery rides the accept (and every chunk); the digest
		// acknowledges it, so the per-object registration handshake is
		// not replayed.
		pr.registered[o.id] = true
	}
	pr.xfer.JoinAccepts++
	p.sendOn(pr.sess, acc)
	attempt := pr.joinAttempt
	pr.joinAttempt++
	pr.joinRetry = p.clk.Schedule(p.retryDelay(pr, attempt), func() {
		pr.joinRetry = nil
		if !p.running || p.peerByAddr(pr.addr) != pr || !pr.syncing || pr.xferActive {
			return
		}
		pr.est.SampleLoss()
		p.sendJoinAccept(pr)
	})
}

// handleJoinRequest admits a restarted replica asking to rejoin as a
// backup. The datagram's source address is authoritative; an unknown
// sender is attached as a new peer.
func (p *Replica) handleJoinRequest(from xkernel.Addr, t *wire.JoinRequest) {
	if !p.running {
		return
	}
	if p.role == RoleObserver && !p.joined {
		// A chained subscriber is asking to join through us before our own
		// upstream join has landed: we have no spec table to accept it
		// against, and a 0-spec accept would strand it (a completed join is
		// never retried). Stay silent — the subscriber's join loop retries
		// until the chain upstream of us is ready.
		return
	}
	if t.Epoch > p.epoch {
		// The joiner has observed a newer primary than us: we are the
		// stale one. Never accept — our own demotion is the failure
		// detector's business.
		return
	}
	pr := p.peerByAddr(from)
	if pr == nil {
		if p.addPeerLocked(from) != nil {
			return
		}
		pr = p.peers[len(p.peers)-1]
	} else {
		if pr.syncing && (pr.xferActive || pr.joinRetry != nil) {
			return // duplicate request; the exchange is already running
		}
		pr.alive = true
	}
	// The joiner declares its role: an observer peer receives the same
	// stream and the same exchange but never counts toward quorums, the
	// replication degree, or critical-write waits.
	pr.observer = t.Observer
	p.beginJoin(pr)
	p.maybeStartPump()
}

// handleStateDigest diffs the joiner's digest against the object table
// and starts a fresh chunk generation streaming only missing or stale
// entries. Freshness is judged by version timestamp, which survives
// epoch changes: the joiner may legitimately hold state from an older
// epoch that is still the newest value in existence.
func (p *Replica) handleStateDigest(from xkernel.Addr, t *wire.StateDigest) {
	pr := p.peerByAddr(from)
	if pr == nil {
		return
	}
	if pr.joinRetry != nil {
		pr.joinRetry.Cancel()
		pr.joinRetry = nil
	}
	if pr.xferRetry != nil {
		pr.xferRetry.Cancel()
		pr.xferRetry = nil
	}
	pr.xfer.Digests++
	have := make(map[uint32]int64, len(t.Entries))
	for _, e := range t.Entries {
		have[e.ObjectID] = e.Version
	}
	pr.xferPending = pr.xferPending[:0]
	for _, o := range p.adm.ordered() {
		if !o.hasData {
			continue // spec-only objects already rode the JoinAccept
		}
		if v, ok := have[o.id]; ok && v >= o.version.UnixNano() {
			pr.xfer.EntriesSkipped++
			continue
		}
		pr.xferPending = append(pr.xferPending, o.id)
	}
	pr.xferGen++
	pr.xferChunk = 0
	pr.xferActive = true
	p.sendNextChunk(pr)
}

// sendNextChunk slices the next chunk off the pending list and pushes
// it. Catch-up traffic yields to congestion: while the peer's send queue
// is backlogged or the governor reports overload, the next chunk is
// deferred — live replication outranks repair.
func (p *Replica) sendNextChunk(pr *replicaPeer) {
	if !p.running || p.peerByAddr(pr.addr) != pr || !pr.xferActive {
		return
	}
	if pr.queue.congested() || (p.gov != nil && p.gov.overloaded()) {
		pr.xferRetry = p.clk.Schedule(p.retryDelay(pr, 0), func() {
			pr.xferRetry = nil
			p.sendNextChunk(pr)
		})
		return
	}
	n, bytes := 0, 0
	for _, id := range pr.xferPending {
		if n >= chunkEntries {
			break
		}
		if o, ok := p.adm.objects[id]; ok {
			if n > 0 && bytes+len(o.value) > chunkBytes {
				break
			}
			bytes += len(o.value)
		}
		n++
	}
	pr.xferIDs = append(pr.xferIDs[:0], pr.xferPending[:n]...)
	pr.xferPending = pr.xferPending[n:]
	pr.xferAttempt = 0
	p.pushChunk(pr, pr.xferGen, len(pr.xferPending) == 0, false)
}

// pushChunk pays the CPU send cost, emits one chunk (entries rebuilt
// fresh at transmission — application is idempotent under supersedes),
// and arms the retransmission timer. A chunk that exhausts its retry
// budget abandons the generation; the joiner's digest retry resumes the
// transfer from whatever landed.
func (p *Replica) pushChunk(pr *replicaPeer, gen uint32, final, retrans bool) {
	if !p.running || p.peerByAddr(pr.addr) != pr || !pr.xferActive || pr.xferGen != gen {
		return
	}
	bytes := 0
	for _, id := range pr.xferIDs {
		if o, ok := p.adm.objects[id]; ok && o.hasData {
			bytes += len(o.value)
		}
	}
	p.proc.Submit(cpu.Low, p.cfg.Costs.sendCost(bytes), func() {
		if !p.running || p.peerByAddr(pr.addr) != pr || !pr.xferActive || pr.xferGen != gen {
			return
		}
		ck := &wire.StateChunk{Epoch: p.epoch, Xfer: gen, Chunk: pr.xferChunk, Final: final}
		for _, id := range pr.xferIDs {
			if o, ok := p.adm.objects[id]; ok && o.hasData {
				ck.Entries = append(ck.Entries, p.stateEntryFor(o))
			}
		}
		pr.xferSentAt = p.clk.Now()
		pr.xferRetrans = retrans
		if retrans {
			pr.xfer.ChunkRetransmits++
		} else {
			pr.xfer.EntriesSent += len(ck.Entries)
		}
		p.sendOn(pr.sess, ck)
		attempt := pr.xferAttempt
		pr.xferAttempt++
		pr.xferRetry = p.clk.Schedule(p.retryDelay(pr, attempt), func() {
			pr.xferRetry = nil
			if !pr.xferActive || pr.xferGen != gen {
				return
			}
			pr.est.SampleLoss()
			if pr.xferAttempt >= maxRetries {
				// The chunk outlived its retry budget. A joiner still
				// mid-join resumes the transfer with its own digest retry —
				// but a joiner that already applied the final chunk (whose
				// ack was lost) will never send another digest, so restart
				// the exchange from the JoinAccept: its fresh digest either
				// resumes from what landed or confirms parity with an empty
				// final chunk. If even the accept goes unanswered, the
				// retry exhaustion there declares the peer sync-failed.
				p.beginJoin(pr)
				return
			}
			p.pushChunk(pr, gen, final, true)
		})
	})
}

// stateEntryFor snapshots one object — spec and value — as a wire entry.
func (p *Replica) stateEntryFor(o *object) wire.StateEntry {
	return wire.StateEntry{
		ObjectID: o.id,
		Seq:      o.seq,
		Version:  o.version.UnixNano(),
		Spec:     wireSpec(o.spec),
		Payload:  append([]byte(nil), o.value...),
	}
}

// handleStateChunkAck advances the stop-and-wait stream: RTT sample
// (Karn's rule: retransmitted chunks yield only a delivery sample), next
// chunk, or — on the final chunk's ack — join completion.
func (p *Replica) handleStateChunkAck(from xkernel.Addr, t *wire.StateChunkAck) {
	pr := p.peerByAddr(from)
	if pr == nil || t.Epoch != p.epoch {
		return
	}
	if !pr.xferActive || t.Xfer != pr.xferGen || t.Chunk != pr.xferChunk {
		return // abandoned generation or an already-advanced chunk
	}
	if pr.xferRetry != nil {
		pr.xferRetry.Cancel()
		pr.xferRetry = nil
	}
	if pr.xferRetrans {
		pr.est.SampleAck()
	} else {
		p.sampleRTT(pr, pr.xferSentAt)
	}
	pr.xferChunk++
	pr.xferIDs = pr.xferIDs[:0]
	if len(pr.xferPending) > 0 {
		p.sendNextChunk(pr)
		return
	}
	pr.xferActive = false
	if !pr.syncing {
		return // idempotent re-sync of an already-counted peer
	}
	pr.syncing = false
	pr.xfer.Completions++
}

// PeerStatus describes one attached peer's repair-cycle state.
type PeerStatus struct {
	// Addr is the peer's replication address.
	Addr xkernel.Addr
	// Alive is the failure detector's current belief.
	Alive bool
	// Syncing reports an anti-entropy exchange still in flight; a syncing
	// peer does not count toward quorums or the replication degree.
	Syncing bool
	// Observer reports a read-only subscriber: it never counts toward
	// quorums or the replication degree, and the repair layer must not
	// mistake it for a recruited backup.
	Observer bool
	// Transfer holds the peer's lifetime anti-entropy counters.
	Transfer TransferStats
}

// PeerStates reports every attached peer's repair-cycle state, sorted by
// address for deterministic output.
func (p *Replica) PeerStates() []PeerStatus {
	out := make([]PeerStatus, 0, len(p.peers))
	for _, pr := range p.peers {
		out = append(out, PeerStatus{Addr: pr.addr, Alive: pr.alive, Syncing: pr.syncing,
			Observer: pr.observer, Transfer: pr.xfer})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// SyncedPeers reports how many live voting peers have completed their
// anti-entropy exchange — the cluster's effective replication degree
// (excluding the primary itself). Observer peers receive the same
// stream but are read-only bystanders: they never count here, in
// critical-write quorums, or anywhere else the cluster's fate is
// decided.
func (p *Replica) SyncedPeers() int {
	n := 0
	for _, pr := range p.peers {
		if pr.alive && !pr.syncing && !pr.observer {
			n++
		}
	}
	return n
}

// --- backup side ---

// Join asks the upstream to take this replica as a subscriber: a backup
// rejoining the cluster, or an observer attaching to its fan-out
// upstream — both ride the same chunked anti-entropy exchange with
// catch-up temporal semantics. The request announces the highest epoch
// this replica has observed (so a fenced old primary rejoins already
// demoted) and whether it subscribes read-only; it is answered by a
// JoinAccept. Join is fire-and-forget; callers (repair.Rejoiner, the
// observer wiring) retry it until Joining or catch-up reports progress.
func (b *Replica) Join() {
	if !b.running || !b.role.Shadows() {
		return
	}
	b.send(&wire.JoinRequest{Epoch: b.epoch, Observer: b.role == RoleObserver})
}

// Joining reports whether a join exchange is in flight (accepted but not
// yet completed by a final chunk).
func (b *Replica) Joining() bool { return b.joining }

// Joined reports whether a join exchange has ever completed on this
// backup.
func (b *Replica) Joined() bool { return b.joined }

// CatchingUp reports whether the named object is still catching up: it
// was marked stale when a join began and no update or chunk within
// δ_i^B has landed yet. An unknown name reports false.
func (b *Replica) CatchingUp(name string) bool {
	if id, ok := b.adm.byName[name]; ok {
		return b.adm.objects[id].catchingUp
	}
	return false
}

// CatchUpRemaining reports how many objects are still catching up.
func (b *Replica) CatchUpRemaining() int { return b.catchingUp }

// handleJoinAccept adopts the primary's epoch, admits every spec in the
// accept, marks every listed object catching-up (its image must not be
// reported consistent until an update lands within δ_i^B), and answers
// with a state digest.
func (b *Replica) handleJoinAccept(t *wire.JoinAccept) {
	if !b.observeEpoch(t.Epoch) {
		return
	}
	fresh := !b.joining
	b.joining = true
	if fresh {
		// A new exchange: forget the previous exchange's chunk dedup set
		// (generation numbers from a re-attached peer slot may repeat).
		b.seenChunks = make(map[uint64]bool)
		b.xferApplied = 0
	}
	for _, s := range t.Specs {
		o := b.adoptSpec(s.ObjectID, objectSpec(s.Spec))
		if !o.catchingUp {
			o.catchingUp = true
			b.catchingUp++
		}
	}
	if b.OnJoinAccept != nil {
		b.OnJoinAccept(t.Epoch, len(t.Specs))
	}
	b.digestAttempt = 0
	b.sendDigest()
}

// sendDigest reports what this backup already holds and arms its own
// retry: the digest is re-sent on a capped backoff for as long as the
// join is incomplete, which is what makes the transfer resumable — a
// fresh digest after any interruption enumerates exactly the entries
// that survived.
func (b *Replica) sendDigest() {
	if !b.running || !b.joining {
		return
	}
	if b.digestRetry != nil {
		b.digestRetry.Cancel()
		b.digestRetry = nil
	}
	d := &wire.StateDigest{Epoch: b.epoch}
	for _, id := range b.adm.orderedIDs() {
		o := b.adm.objects[id]
		if !o.hasData {
			continue
		}
		d.Entries = append(d.Entries, wire.DigestEntry{
			ObjectID: id,
			Epoch:    o.recvEpoch,
			Seq:      o.seq,
			Version:  o.version.UnixNano(),
		})
	}
	b.send(d)
	attempt := b.digestAttempt
	b.digestAttempt++
	base := b.cfg.retryBase()
	b.digestRetry = b.cfg.Clock.Schedule(b.joinBackoff.DelayFrom(base, attempt), func() {
		b.digestRetry = nil
		b.sendDigest()
	})
}

// handleStateChunk applies one chunk (dedup by generation and chunk
// number; duplicates are re-acknowledged but not re-applied) and, on the
// final chunk, completes the join.
func (b *Replica) handleStateChunk(t *wire.StateChunk) {
	if !b.observeEpoch(t.Epoch) {
		return
	}
	if b.seenChunks == nil {
		b.seenChunks = make(map[uint64]bool)
	}
	key := uint64(t.Xfer)<<32 | uint64(t.Chunk)
	applied := 0
	dup := b.seenChunks[key]
	if !dup {
		b.seenChunks[key] = true
		for _, e := range t.Entries {
			applied += b.applyStateEntry(t.Epoch, e)
		}
		b.xferApplied += applied
	}
	b.send(&wire.StateChunkAck{Epoch: t.Epoch, Xfer: t.Xfer, Chunk: t.Chunk, Applied: uint32(applied)})
	if dup || !b.joining {
		return
	}
	if t.Final {
		b.joining = false
		b.joined = true
		if b.digestRetry != nil {
			b.digestRetry.Cancel()
			b.digestRetry = nil
		}
		n := b.xferApplied
		b.xferApplied = 0
		if b.OnStateTransfer != nil {
			b.OnStateTransfer(t.Epoch, n)
		}
		return
	}
	// Progress: push the digest retry out instead of letting it fire
	// mid-stream and needlessly restart the generation.
	b.digestAttempt = 0
	if b.digestRetry != nil {
		b.digestRetry.Cancel()
	}
	base := b.cfg.retryBase()
	b.digestRetry = b.cfg.Clock.Schedule(b.joinBackoff.DelayFrom(base, 0), func() {
		b.digestRetry = nil
		b.sendDigest()
	})
}

// applyStateEntry installs one transferred entry: the spec first (an
// entry may describe an object whose registration this replica never
// saw — without the spec a later promotion would silently drop the
// state), then the value under the usual supersedes ordering. It reports
// 1 if the value was applied, 0 if local state was already newer.
func (b *Replica) applyStateEntry(epoch uint32, e wire.StateEntry) int {
	o := b.adoptSpec(e.ObjectID, objectSpec(e.Spec))
	if !o.supersedes(epoch, e.Seq) && !b.cfg.DisableEpochFencing {
		return 0
	}
	b.apply(o, epoch, e.Seq, time.Unix(0, e.Version), e.Payload)
	return 1
}
