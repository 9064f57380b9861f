package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/clocksync"
	"rtpb/internal/cpu"
	"rtpb/internal/resilience"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// Role is the replica state machine's current state: every replica is one
// automaton serving (primary), shadowing (backup), or observing
// (read-only). Failover flips primary ⇄ backup in place — the object
// table, admission ledger, and epoch fence all carry across the
// transition untouched. Observers sit outside the failover lattice: they
// apply the same update stream but can never be promoted.
type Role uint8

const (
	// RoleBackup shadows a primary: applies updates, detects gaps,
	// answers heartbeats, and runs the join/catch-up exchange.
	RoleBackup Role = iota
	// RolePrimary serves clients: admission control, client writes, and
	// the decoupled update transmission schedule toward its peers.
	RolePrimary
	// RoleObserver is a read-only replica subscribed to an upstream — a
	// primary or another observer (chained fan-out). It applies the same
	// update/frame stream through the backup handlers, serves
	// certificate reads with chain-accumulated uncertainty, and
	// re-broadcasts the stream to its own downstream subscribers; it is
	// excluded from quorums, admission, failover candidacy, and repair
	// recruitment.
	RoleObserver
)

func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleBackup:
		return "backup"
	case RoleObserver:
		return "observer"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// Shadows reports whether the role maintains an upstream session and
// applies a replicated update stream (backup and observer).
func (r Role) Shadows() bool { return r == RoleBackup || r == RoleObserver }

// wireRole maps the replica role onto its wire representation.
func (r Role) wireRole() wire.Role {
	switch r {
	case RolePrimary:
		return wire.RolePrimary
	case RoleObserver:
		return wire.RoleObserver
	default:
		return wire.RoleBackup
	}
}

// Role-transition errors: primary-only operations (admission, client
// writes, peer management) and backup-only operations (joining) report
// these when invoked in the wrong state.
var (
	ErrNotPrimary = errors.New("core: replica is not serving as primary")
	ErrNotBackup  = errors.New("core: replica is not serving as backup")
)

// Replica is the RTPB replica state machine. One kernel owns the object
// table (the admission ledger doubles as the backup's replica table), the
// epoch ledger, the wire demux, the send path with its bounded queues and
// link estimators, the overload governor, and the anti-entropy transfer
// engine. One type serves every role; Role reports which.
//
// The role decides the active task set:
//
//	RolePrimary: per-object periodic update tasks (or the compressed
//	  pump), registration forwarding, join/chunk streaming, heartbeat
//	  probing of peers, the overload governor.
//	RoleBackup: gap detection + retransmit requests, digest retries of
//	  an in-flight join, heartbeat answering toward the upstream session.
//
// Promote flips a backup to primary in place: no object is copied,
// no admission test re-runs (the specs were admitted once and the derived
// update periods ride in the ledger), and the temporal monitor keeps
// observing the same object identities across the transition.
//
// All methods must be called on the clock executor (callbacks, or Post
// for external goroutines), matching the serial execution model of the
// protocol graph.
type Replica struct {
	cfg  Config
	clk  clock.Clock
	proc *cpu.Resource
	adm  *admission
	port *xkernel.PortProtocol

	role        Role
	transitions int

	running bool
	epoch   uint32

	// --- durable persistence bookkeeping (see durable.go) ---

	// durApplies counts applies logged since the last snapshot;
	// durRestoring suppresses re-logging while RestoreDurable installs a
	// recovered image; durRestored counts disk-seeded values (the
	// "recovery source" the ctl LOGSTAT verb reports).
	durApplies   int
	durRestoring bool
	durRestored  int

	// --- primary-role state ---

	peers []*replicaPeer

	pumpActive bool
	pumpOrder  []uint32
	pumpNext   int
	pump       slot   // reused: one pump step is outstanding at a time
	pumpSent   func() // the step's completion, built once: flush, then chain

	// gov is the overload governor (nil when disabled or not serving).
	gov *governor
	// drainActive reports whether the bounded-queue drain pump holds a
	// pending CPU submission.
	drainActive bool
	// deadlineMisses counts update transmissions that found their object
	// still queued from the previous release (coalesced sends) since the
	// governor's last sample.
	deadlineMisses int
	// encBuf, updMsg and out are the send paths' reused encode buffer,
	// Update value and outbound message; in decodes every inbound
	// datagram. With the per-peer frame builders they keep the
	// steady-state update path allocation-free at both ends.
	encBuf []byte
	updMsg wire.Update
	out    xkernel.Message
	in     wire.Decoder
	rxAt   time.Time // when the datagram Demux is handling arrived

	// --- backup-role state ---

	// sess is the session toward the upstream primary (nil when none).
	sess    *xkernel.Session
	pingSeq uint64

	// csync estimates the upstream peer's clock offset from TimeSync
	// probes piggybacked on outbound heartbeats (nil unless
	// Config.ClockSync). It survives role flips: a promoted replica
	// keeps its last estimate (honestly aged) until it shadows again.
	csync *clocksync.Estimator

	// gapBackoff spaces gap-recovery retransmission requests with
	// deterministic jitter.
	gapBackoff        *resilience.Backoff
	retransRequested  int
	retransSuppressed int

	// Join-exchange state (transfer.go): joining marks an accepted join
	// whose final chunk has not landed; joined latches once any join
	// completes; catchingUp counts objects still outside δ_i^B;
	// seenChunks dedups applied chunks by (generation, chunk).
	joining       bool
	joined        bool
	catchingUp    int
	xferApplied   int
	seenChunks    map[uint64]bool
	digestRetry   *clock.Event
	digestAttempt int
	joinBackoff   *resilience.Backoff

	// --- observer-role state ---

	// upstreamDepth and upstreamTheta hold the upstream's advertised
	// chain position from its latest ChainStatus: hops from the serving
	// primary and the clock uncertainty accumulated up to the upstream.
	// Until the first status arrives the upstream is assumed to be the
	// primary (depth 0, nothing inherited) — age still compounds
	// through the version timestamp regardless.
	upstreamDepth uint32
	upstreamTheta time.Duration
	// subTasks are Subscribe's join and heartbeat loops.
	subTasks []*clock.Periodic

	// --- callbacks (role-relevant subsets fire; the rest stay silent) ---

	// OnSend, when set, observes every update transmission (after the
	// CPU cost, at the instant the datagram enters the network). With
	// multiple backups it fires once per transmission, not per peer.
	OnSend func(objectID uint32, name string, seq uint64, version time.Time)
	// OnClientDone, when set, observes every completed client write with
	// its response time.
	OnClientDone func(name string, latency time.Duration)
	// OnRetransmitRequest, when set, observes backup retransmission
	// requests.
	OnRetransmitRequest func(objectID uint32)
	// OnPingAck, when set, receives heartbeat acknowledgements from any
	// peer.
	OnPingAck func(seq uint64)
	// OnModeChange, when set, observes overload-governor rung transitions
	// — announced ones while serving, the primary's announcements while
	// backing up — with the external bound still maintained in the new
	// mode (zero when the object is shed).
	OnModeChange func(objectID uint32, name string, mode ObjectMode, effectiveBound time.Duration)
	// OnApply, when set, observes every applied update with the epoch it
	// was stamped with (invariant checkers use the epoch to detect
	// fenced-epoch state leaking through).
	OnApply func(objectID uint32, name string, epoch uint32, seq uint64, version, appliedAt time.Time)
	// OnGap, when set, observes detected sequence gaps (lost updates).
	OnGap func(objectID uint32, haveSeq, gotSeq uint64)
	// OnRegister, when set, observes object registrations replicated from
	// the primary.
	OnRegister func(spec ObjectSpec)
	// OnStateTransfer, when set, observes a completed chunked join
	// exchange with the total entries it applied.
	OnStateTransfer func(epoch uint32, objects int)
	// OnJoinAccept, when set, observes an accepted join with the
	// primary's epoch and spec count — the instant every listed object
	// enters catch-up (temporal monitors suspend their bounds here).
	OnJoinAccept func(epoch uint32, specs int)
	// OnCatchUp, when set, observes one object completing catch-up: an
	// update or chunk landed within δ_i^B, so the object may be reported
	// temporally consistent again.
	OnCatchUp func(objectID uint32, name string, staleness time.Duration)
	// OnPlaceholderDrop, when set, observes promotion discarding
	// spec-less placeholder objects (orphan updates whose registration
	// never arrived): their replicated bytes cannot be served without an
	// identity, and this is the only record of the loss.
	OnPlaceholderDrop func(ids []uint32)
}

var _ xkernel.Upper = (*Replica)(nil)

// NewReplica builds a replica in the given role and enables it on the
// port protocol's RTPB port. A primary starts at epoch 1 and attaches
// cfg.Peers; a backup starts at epoch 0 (unstamped) and opens its
// upstream session toward cfg.Peer when set.
func NewReplica(cfg Config, role Role) (*Replica, error) {
	switch {
	case cfg.Clock == nil:
		return nil, ErrNoClock
	case cfg.Port == nil:
		return nil, ErrNoPort
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:     cfg,
		clk:     cfg.Clock,
		proc:    cpu.New(cfg.Clock),
		port:    cfg.Port,
		role:    role,
		running: true,
	}
	r.adm = newAdmission(&r.cfg)
	r.pumpSent = func() { r.flushBatch(r.pump.entries); r.pumpStep() }
	if cfg.ClockSync {
		r.csync = clocksync.New(clocksync.Config{
			MaxDriftPPM: cfg.ClockSyncMaxDriftPPM,
			Link:        resilience.NewEstimator(resilience.EstimatorConfig{}),
		})
	}
	switch role {
	case RolePrimary:
		r.epoch = 1
		if r.cfg.Governor.Enable {
			r.gov = newGovernor(r)
		}
		if err := cfg.Port.EnablePort(RTPBPort, r); err != nil {
			return nil, err
		}
		for _, addr := range cfg.Peers {
			if err := r.addPeerLocked(addr); err != nil {
				r.Stop()
				return nil, err
			}
		}
	case RoleBackup, RoleObserver:
		r.seedBackupLink(cfg.Peer)
		if err := cfg.Port.EnablePort(RTPBPort, r); err != nil {
			return nil, err
		}
		if cfg.Peer != "" {
			sess, err := cfg.Port.OpenFrom(RTPBPort, cfg.Peer)
			if err != nil {
				cfg.Port.DisablePort(RTPBPort)
				return nil, fmt.Errorf("core: open primary session: %w", err)
			}
			r.sess = sess
		}
	default:
		return nil, fmt.Errorf("core: unknown role %v", role)
	}
	return r, nil
}

// NewPrimary builds a replica serving as primary.
func NewPrimary(cfg Config) (*Replica, error) { return NewReplica(cfg, RolePrimary) }

// NewBackup builds a replica shadowing as backup.
func NewBackup(cfg Config) (*Replica, error) { return NewReplica(cfg, RoleBackup) }

// NewObserver builds a read-only replica observing cfg.Peer — a primary
// or another observer. Subscribe starts its attach loop: Join through
// the chunked anti-entropy exchange, and SendPing for heartbeat,
// clock-sync, and chain-status traffic toward the upstream.
func NewObserver(cfg Config) (*Replica, error) { return NewReplica(cfg, RoleObserver) }

// seedBackupLink derives the backup-role jitter streams for the upstream
// link toward addr.
func (r *Replica) seedBackupLink(addr xkernel.Addr) {
	seed := linkSeed(RTPBPort, addr)
	r.gapBackoff = resilience.NewBackoff(seed)
	r.gapBackoff.Cap = retryCeiling
	// A distinct jitter stream for digest retries so join traffic does
	// not perturb the gap-recovery schedule of replays.
	r.joinBackoff = resilience.NewBackoff(seed ^ 0x9e3779b97f4a7c15)
	r.joinBackoff.Cap = retryCeiling
}

// Stop cancels every periodic task in either role and releases the port
// binding.
func (r *Replica) Stop() {
	if !r.running {
		return
	}
	r.running = false
	if r.gov != nil {
		r.gov.stop()
	}
	for _, o := range r.adm.objects {
		if o.task != nil {
			o.task.Stop()
		}
	}
	for _, t := range r.subTasks {
		t.Stop()
	}
	r.subTasks = nil
	for _, pr := range r.peers {
		r.cancelTransfer(pr)
	}
	if r.digestRetry != nil {
		r.digestRetry.Cancel()
		r.digestRetry = nil
	}
	r.port.DisablePort(RTPBPort)
	for _, pr := range r.peers {
		pr.sess.Close()
	}
	if r.sess != nil {
		r.sess.Close()
	}
}

// Running reports whether the replica is serving.
func (r *Replica) Running() bool { return r.running }

// Role reports the replica's current role.
func (r *Replica) Role() Role { return r.role }

// Upstream reports the address the replica's upstream session targets;
// empty when it has none, as while serving.
func (r *Replica) Upstream() xkernel.Addr {
	if r.sess == nil {
		return ""
	}
	return r.cfg.Peer
}

// Transitions reports how many in-place role transitions (promotions)
// this replica has performed.
func (r *Replica) Transitions() int { return r.transitions }

// Epoch reports the replica's current epoch: the serving epoch as
// primary, the highest observed epoch as backup (zero if none).
func (r *Replica) Epoch() uint32 { return r.epoch }

// SetEpoch installs the epoch a promoted replica claimed (the failover
// orchestrator adjusts it after winning the directory race), or the
// fencing bump a disk-restarted primary resumes under.
func (r *Replica) SetEpoch(e uint32) {
	if e == r.epoch {
		return
	}
	r.epoch = e
	r.noteEpochDurable()
}

// Objects reports the number of known objects (admitted while serving,
// replicated while backing up).
func (r *Replica) Objects() int { return len(r.adm.objects) }

// Value returns the replica's current copy of an object by name.
func (r *Replica) Value(name string) (data []byte, version time.Time, ok bool) {
	o, err := r.adm.byNameOrErr(name)
	if err != nil || !o.hasData {
		return nil, time.Time{}, false
	}
	cp := make([]byte, len(o.value))
	copy(cp, o.value)
	return cp, o.version, true
}

// Certificate reports an object's current image with its staleness
// certificate, built through the one shared constructor in cert.go so
// primary, backup, observer, gateway, and ctl READ paths cannot drift
// on age/δ_B/θ/mode semantics. ok is false for unknown or
// not-yet-written objects.
func (r *Replica) Certificate(name string) (Certificate, bool) {
	o, err := r.adm.byNameOrErr(name)
	if err != nil || !o.hasData {
		return Certificate{}, false
	}
	mode, _ := r.Mode(name)
	bound := o.spec.Constraint.DeltaB
	switch {
	case r.role == RolePrimary && r.gov != nil:
		bound = r.gov.effectiveBound(o, mode)
	case r.role.Shadows() && mode != ModeNormal:
		bound = o.modeBound
	}
	cp := make([]byte, len(o.value))
	copy(cp, o.value)
	return newCertificate(cp, o.version, r.clk.Now(), bound, mode, r.chainTheta(), r.chainDepth()), true
}

// Mode reports the object's current overload-degradation rung: the
// governor's while serving (ModeNormal when ungoverned), the primary's
// last announcement while backing up.
func (r *Replica) Mode(name string) (ObjectMode, bool) {
	o, err := r.adm.byNameOrErr(name)
	if err != nil {
		return 0, false
	}
	if r.role == RolePrimary {
		if r.gov == nil {
			return ModeNormal, true
		}
		return r.gov.mode(o.id), true
	}
	if o.mode != 0 {
		return o.mode, true
	}
	return ModeNormal, true
}

// SendPing emits one heartbeat: toward the upstream when shadowing
// (backup or observer), toward the first attached backup when serving
// (the single-backup form used by the paper's deployment; multi-backup
// deployments use SendPingTo per peer). An observer's ping additionally
// solicits the upstream's ChainStatus so chained certificates compound
// staleness honestly. It returns the heartbeat's sequence number.
func (r *Replica) SendPing() uint64 {
	if r.role.Shadows() {
		r.pingSeq++
		r.send(&wire.Ping{Seq: r.pingSeq, From: r.role.wireRole()})
		if r.csync != nil {
			// Clock-sync probe rides the heartbeat: same cadence, same
			// link, no extra timers. t1 is stamped from this node's own
			// (possibly faulty) clock — that is the clock whose offset we
			// are estimating.
			r.send(&wire.TimeSync{Seq: r.pingSeq, From: r.role.wireRole(),
				Originate: r.clk.Now().UnixNano()})
		}
		return r.pingSeq
	}
	if len(r.peers) == 0 {
		return 0
	}
	seq, _ := r.SendPingTo(r.peers[0].addr)
	return seq
}

// observeTimeSync feeds one completed clock-sync echo into the offset
// estimator. t4 (the reply's arrival) is stamped here from the local
// clock; the other three instants ride in the echo.
func (r *Replica) observeTimeSync(t *wire.TimeSync) {
	if r.csync == nil {
		return
	}
	t4 := r.clk.Now()
	r.csync.AddSample(
		time.Unix(0, t.Originate), time.Unix(0, t.Receive), time.Unix(0, t.Transmit), t4)
}

// ClockSyncReport summarizes the upstream clock-offset estimator as of
// now. ok is false when Config.ClockSync is disabled.
func (r *Replica) ClockSyncReport() (clocksync.Report, bool) {
	if r.csync == nil {
		return clocksync.Report{}, false
	}
	return r.csync.Report(r.clk.Now()), true
}

// Demux implements xkernel.Upper: inbound RTPB datagrams are decoded once
// and dispatched by the current role. A framed datagram fans out to one
// dispatch per carried message, in transmission order, so every handler
// sees the same per-message stream it would under one-datagram-per-update.
// All are decoded before the first is dispatched, so a frame carrying one
// malformed message is dropped whole. An update's payload aliases the
// datagram, which apply copies from.
func (r *Replica) Demux(m *xkernel.Message, from xkernel.Addr) error {
	if !r.running {
		return nil
	}
	msgs, err := r.in.Decode(m.Bytes())
	if err != nil {
		return err // malformed datagram: drop
	}
	r.rxAt = r.clk.Now() // one instant, one clock read, for a whole frame
	for _, msg := range msgs {
		if !r.running {
			// A framed message may stop the replica (epoch fence);
			// the rest of the batch must not leak through.
			return nil
		}
		r.dispatch(msg, from)
	}
	return nil
}

// dispatch routes one decoded message to the current role's handler.
func (r *Replica) dispatch(msg wire.Message, from xkernel.Addr) {
	switch r.role {
	case RolePrimary:
		r.demuxPrimary(msg, from)
	case RoleObserver:
		r.demuxObserver(msg, from)
	default:
		r.demuxBackup(msg)
	}
}

// Promote flips a backup to primary in place under the given epoch: the
// object table and admission ledger carry over untouched (no snapshot
// copy, no re-admission — every spec was admitted when it was replicated,
// and its derived update period rides in the ledger), backup-role timers
// stop, and the primary-role update tasks start. Spec-less placeholder
// objects are dropped (reported through OnPlaceholderDrop): bytes without
// an identity cannot be served.
//
// The promoted replica starts with no peers; the failover orchestrator
// re-attaches surviving backups with AddPeer, which drives them through
// the anti-entropy exchange under the new epoch.
//
// Only a backup may be promoted. An observer holds the same replicated
// state but sits outside the fault-tolerance contract — it was never
// counted in any quorum, its staleness is only bounded best-effort
// through its chain — so promoting one would seat an authority nobody
// admitted. The role guard makes that a hard error, not a policy.
func (r *Replica) Promote(epoch uint32) error {
	if !r.running {
		return ErrStopped
	}
	if r.role != RoleBackup {
		return ErrNotBackup
	}

	// Backup-role machinery goes quiet: the digest retry stops, any
	// half-finished join is abandoned (we are the authority now), and the
	// upstream session closes.
	if r.digestRetry != nil {
		r.digestRetry.Cancel()
		r.digestRetry = nil
	}
	r.joining = false
	r.digestAttempt = 0
	r.seenChunks = nil
	r.xferApplied = 0
	if r.sess != nil {
		r.sess.Close()
		r.sess = nil
	}

	// Drop spec-less placeholders: objects created by an orphan update
	// whose registration never arrived. Their replicated bytes have no
	// name, no constraint, and no admitted schedule — they cannot be
	// served, and silently losing them is the one thing we must not do.
	var dropped []uint32
	for id, o := range r.adm.objects {
		if o.spec.Name == "" {
			dropped = append(dropped, id)
			delete(r.adm.objects, id)
		}
	}
	if len(dropped) > 0 {
		sort.Slice(dropped, func(i, j int) bool { return dropped[i] < dropped[j] })
		if r.OnPlaceholderDrop != nil {
			r.OnPlaceholderDrop(dropped)
		}
	}

	// Flip the role. Everything below is per-object bookkeeping reset —
	// O(1) work per object, no copies, no admission tests, no wire
	// traffic.
	r.role = RolePrimary
	r.transitions++
	if epoch > r.epoch {
		r.epoch = epoch
	}
	for _, o := range r.adm.objects {
		// Sequence numbering restarts under the new epoch; surviving
		// backups order updates by (epoch, seq), so the epoch bump alone
		// keeps supersedes correct.
		o.seq = 0
		o.highPending = false
		o.lastSentSeq = 0
		o.lastSentVersion = time.Time{}
		o.lastSentAt = time.Time{}
		o.pendingAcks = nil
		o.retransAttempt = 0
		o.retransNext = time.Time{}
		o.mode, o.modeSeq, o.modeEpoch = 0, 0, 0
		o.catchingUp = false
	}
	r.catchingUp = 0
	r.pumpActive, r.pumpOrder, r.pumpNext = false, nil, 0
	r.drainActive = false
	r.deadlineMisses = 0

	// Re-specialize the inherited periods into a harmonic set (under
	// DCS); the specialized periods never exceed the nominals, so every
	// temporal constraint keeps holding even if this fails.
	_ = r.adm.specialize()
	if r.cfg.Governor.Enable && r.gov == nil {
		r.gov = newGovernor(r)
	}
	for _, o := range r.adm.ordered() {
		r.startUpdateTask(o)
	}
	// Snapshot on epoch advance: the durable log rolls to a fresh
	// segment under the new epoch and the pre-promotion image becomes
	// prunable history.
	r.noteEpochDurable()
	return nil
}
