package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/durable"
	"rtpb/internal/failover"
	"rtpb/internal/repair"
	"rtpb/internal/temporal"
	"rtpb/internal/topo"
	"rtpb/internal/xkernel"
)

// Node names used by every scenario.
const (
	// PrimaryNode hosts the initial primary.
	PrimaryNode = "primary"
	// BackupNode hosts the initial backup.
	BackupNode = "backup"
	// StandbyNode hosts the optional second backup (Scenario.Standby).
	StandbyNode = "standby"
	// ObserverANode and ObserverBNode are the conventional names for the
	// first two observer nodes (Scenario.Observers); scenarios may name
	// observers freely, these just keep the catalogue consistent.
	ObserverANode = "observer-a"
	ObserverBNode = "observer-b"
	// ServiceName is the replicated service's name-service entry.
	ServiceName = "chaos"
)

// Node is one machine in the harnessed cluster: a fabric host (name,
// endpoint, port protocol, RTPB address, clock) plus what runs on it.
// Every component the node runs — replica, detector, rejoiner — reads
// the host's clock, never the fabric's, so per-node clock faults
// (ClockSkew, ClockDrift, ClockStep) reach exactly the code a faulty
// oscillator would reach on a real machine.
type Node struct {
	*topo.Host
	// Rep is the node's one replica (nil while the node is down). Its
	// role is Rep.Role(): promotion flips it in place, exactly like the
	// paper's deployment. Observer nodes (Scenario.Observers) run an
	// observer and never host a detector: they have no failover verdict
	// to reach.
	Rep *core.Replica
	// Det is the backup-side failure detector, while Rep is a backup.
	Det *failover.Detector
	// Dur is the node's durable store (Scenario.Durable); crash closes
	// it but leaves its files under DurDir for a later restart.
	Dur *durable.Log
	// DurDir is the node's durable directory (empty without Durable).
	DurDir string

	applies int
}

// running returns the node's replica if it is running in role, else nil.
func (n *Node) running(role core.Role) *core.Replica {
	if n.Rep == nil || !n.Rep.Running() || n.Rep.Role() != role {
		return nil
	}
	return n.Rep
}

// Harness is a running chaos cluster: the simulated fabric, the nodes,
// the monitor, and the accumulated event log and violations.
type Harness struct {
	sc     Scenario
	fabric *topo.Fabric
	clk    *clock.SimClock
	ns     *failover.NameService
	mon    *temporal.Monitor
	nodes  map[string]*Node
	order  []string
	// obsOrder names the observer nodes in attach order. They live
	// outside order on purpose: the primary's peer bootstrap, the
	// failover machinery, CrashCluster, and the cluster-wide end-state
	// aggregations all iterate order — exactly the circles the observer
	// role is excluded from.
	obsOrder []string

	active     *core.Replica
	activeNode string

	start       time.Time
	log         []string
	violations  []string
	checkpoints map[string]checkpoint
	writers     []*clock.Periodic
	writeCounts map[string]int
	maxEpoch    map[string]uint32
	lastVersion map[string]time.Time
	promotions  int
	promotedAt  []time.Time

	govCheckpoints map[string]govCheckpoint
	hogs           []*clock.Periodic

	uncertaintyFeeds []*clock.Periodic
	honestChecks     map[string]*honestBoundsEvidence
	obsChecks        map[string]*observerCertEvidence

	rejoiners  map[string]*repair.Rejoiner
	rejoinAt   map[string]time.Time
	caughtUpAt map[string]time.Time

	durRoot      string
	recovered    map[string]diskRecovery
	joinAcceptAt map[string]time.Time
	joinedAt     map[string]time.Time
}

// diskRecovery records one node's restart-from-disk outcome for the
// DiskRecovered invariant and the event log.
type diskRecovery struct {
	stats   durable.RecoveryStats
	objects int    // object values recovered from disk
	source  string // "disk" (resumed primary) or "disk+gap" (rejoined backup)
}

// govCheckpoint is a mid-run capture of the overload governor's ladder
// state, taken by GovernorDegradedAt's armer.
type govCheckpoint struct {
	stats core.GovernorStats
	modes map[string]core.ObjectMode
	ok    bool
}

func (h *Harness) logf(format string, args ...any) {
	offset := h.clk.Now().Sub(h.start).Round(100 * time.Microsecond)
	h.log = append(h.log, fmt.Sprintf("+%-9v %s", offset, fmt.Sprintf(format, args...)))
}

// plural picks the singular or plural suffix for a count.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

func (h *Harness) violationf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	h.violations = append(h.violations, msg)
	h.logf("VIOLATION: %s", msg)
}

// newHarness builds and wires the cluster for a normalized scenario. On
// error nothing is left behind: the durable root, if any, is removed.
func newHarness(sc Scenario) (*Harness, error) {
	f, err := topo.New(sc.Seed, sc.Link)
	if err != nil {
		return nil, err
	}
	h := &Harness{
		sc:          sc,
		fabric:      f,
		clk:         f.Clock,
		ns:          failover.NewNameService(),
		mon:         temporal.NewMonitor(),
		nodes:       make(map[string]*Node),
		checkpoints: make(map[string]checkpoint),
		writeCounts: make(map[string]int),
		maxEpoch:    make(map[string]uint32),
		lastVersion: make(map[string]time.Time),

		govCheckpoints: make(map[string]govCheckpoint),
		rejoiners:      make(map[string]*repair.Rejoiner),
		rejoinAt:       make(map[string]time.Time),
		caughtUpAt:     make(map[string]time.Time),

		recovered:    make(map[string]diskRecovery),
		joinAcceptAt: make(map[string]time.Time),
		joinedAt:     make(map[string]time.Time),

		honestChecks: make(map[string]*honestBoundsEvidence),
		obsChecks:    make(map[string]*observerCertEvidence),
	}
	h.start = h.clk.Now()
	if err := h.build(); err != nil {
		h.cleanupDurable()
		return nil, err
	}
	return h, nil
}

// build attaches the nodes, opens their durable stores, and starts the
// replicas, observers, and client writers.
func (h *Harness) build() error {
	sc := h.sc
	names := []string{PrimaryNode, BackupNode}
	if sc.Standby {
		names = append(names, StandbyNode)
	}
	for _, name := range names {
		host, err := h.fabric.Host(name)
		if err != nil {
			return err
		}
		h.nodes[name] = &Node{Host: host}
		h.order = append(h.order, name)
	}

	if sc.Durable {
		// One run-private root, one subdirectory per node. Synchronous
		// mode keeps the run a pure function of (scenario, seed): every
		// record is written inline on the executor, no background
		// goroutine interleaves with the simulation. NoFsync trades
		// real-disk durability (meaningless for a temp dir) for speed.
		root, err := os.MkdirTemp("", "rtpb-chaos-durable-")
		if err != nil {
			return fmt.Errorf("chaos: durable root: %w", err)
		}
		h.durRoot = root
		for _, name := range h.order {
			if err := h.openDurable(h.nodes[name]); err != nil {
				return err
			}
		}
	}

	// The primary replicates to every other node.
	pn := h.nodes[PrimaryNode]
	cfg := h.config(pn)
	for _, name := range h.order[1:] {
		cfg.Peers = append(cfg.Peers, h.nodes[name].Addr)
	}
	primary, err := core.NewPrimary(cfg)
	if err != nil {
		return err
	}
	h.wireGovernor(primary)
	pn.Rep = primary
	h.active = primary
	h.activeNode = PrimaryNode
	if err := h.ns.Set(ServiceName, pn.Addr, 1); err != nil {
		return err
	}

	for _, name := range h.order[1:] {
		if err := h.startShadow(h.nodes[name], core.RoleBackup, pn.Addr); err != nil {
			return err
		}
		for _, spec := range sc.Objects {
			h.mon.TrackExternal(name, spec.Name, spec.Constraint.DeltaB)
		}
		for _, c := range sc.InterObjects {
			h.mon.TrackInterObject(name, c)
		}
	}

	for _, spec := range sc.Objects {
		if d := primary.Register(spec); !d.Accepted {
			return fmt.Errorf("chaos: object %q rejected: %s", spec.Name, d.Reason)
		}
	}
	for _, c := range sc.InterObjects {
		if _, err := primary.RegisterInterObject(c); err != nil {
			return fmt.Errorf("chaos: inter-object %s/%s rejected: %w", c.I, c.J, err)
		}
	}

	for _, ospec := range sc.Observers {
		if err := h.attachObserver(ospec); err != nil {
			return err
		}
	}

	h.startWriters()
	return nil
}

// attachObserver builds one observer node and subscribes it to its
// upstream. The observer drives its own attach (core.Replica.Subscribe)
// exactly like a real deployment (rtpbd -observe). No detector, no
// peer-table surgery on the primary — the JoinRequest's Observer flag is
// the whole contract.
func (h *Harness) attachObserver(spec ObserverSpec) error {
	up := h.nodes[spec.Upstream]
	if up == nil {
		return fmt.Errorf("chaos: observer %q: unknown upstream %q", spec.Name, spec.Upstream)
	}
	if h.nodes[spec.Name] != nil {
		return fmt.Errorf("chaos: observer %q: node name already in use", spec.Name)
	}
	host, err := h.fabric.Host(spec.Name)
	if err != nil {
		return err
	}
	n := &Node{Host: host}
	h.nodes[spec.Name] = n
	h.obsOrder = append(h.obsOrder, spec.Name)
	if err := h.startShadow(n, core.RoleObserver, up.Addr); err != nil {
		return err
	}
	for _, os := range h.sc.Objects {
		h.mon.TrackExternal(spec.Name, os.Name, os.Constraint.DeltaB)
	}
	n.Rep.Subscribe(100 * time.Millisecond)
	h.logf("%s observes %s", spec.Name, spec.Upstream)
	return nil
}

// config builds the configuration of a replica on the node, in any
// role: promotion is in-place, so the config a backup is built with is
// the config it will serve with after takeover. Callers add the
// upstream (Peer) or the downstream peers (Peers).
func (h *Harness) config(n *Node) core.Config {
	return core.Config{
		Clock:                n.Clk,
		Port:                 n.Port,
		Durable:              n.Dur,
		Ell:                  5 * time.Millisecond, // ℓ, the admission controller's delay bound
		Costs:                h.sc.Costs,
		Governor:             h.sc.Governor,
		FrameBatch:           h.sc.FrameBatch,
		DisableEpochFencing:  h.sc.DisableFencing,
		ClockSync:            h.sc.ClockSync,
		ClockSyncMaxDriftPPM: h.sc.ClockSyncMaxDriftPPM,
	}
}

// openDurable opens (or reopens, across a restart) the node's durable
// store in deterministic synchronous mode.
func (h *Harness) openDurable(n *Node) error {
	if n.DurDir == "" {
		n.DurDir = filepath.Join(h.durRoot, n.Name)
	}
	lg, err := durable.Open(durable.Config{Dir: n.DurDir, Sync: true, NoFsync: true})
	if err != nil {
		return fmt.Errorf("chaos: durable store for %s: %w", n.Name, err)
	}
	n.Dur = lg
	return nil
}

// cleanupDurable closes every live store and removes the run's durable
// root. Paths never reach the event log, so cleanup cannot perturb the
// byte-identical replay contract.
func (h *Harness) cleanupDurable() {
	if h.durRoot == "" {
		return
	}
	for _, name := range h.order {
		n := h.nodes[name]
		if n.Dur != nil {
			n.Dur.Close()
			n.Dur = nil
		}
	}
	os.RemoveAll(h.durRoot)
	h.durRoot = ""
}

// wireGovernor logs the primary-side overload governor's rung
// transitions (the authoritative record of ladder activity).
func (h *Harness) wireGovernor(p *core.Replica) {
	p.OnModeChange = func(_ uint32, name string, mode core.ObjectMode, bound time.Duration) {
		h.logf("governor: %q -> %s (effective bound %v)", name, mode, bound)
	}
}

// startShadow starts a backup or an observer on the node, shadowing
// upstream, and wires it.
func (h *Harness) startShadow(n *Node, role core.Role, upstream xkernel.Addr) error {
	cfg := h.config(n)
	cfg.Peer = upstream
	r, err := core.NewReplica(cfg, role)
	if err != nil {
		return err
	}
	n.Rep = r
	return h.wireShadow(n)
}

// wireShadow streams the node's backup or observer into the monitor:
// applies, mode changes and catch-up. When a JoinAccept lands, every
// object's bound is suspended (the transferred image carries no temporal
// guarantee) until the replica declares it inside δ_i^B again. Only a
// backup gets a failure detector and the rejoin bookkeeping: an observer
// has no failover verdict to reach and no degree to restore.
func (h *Harness) wireShadow(n *Node) error {
	r := n.Rep
	observer := r.Role() == core.RoleObserver
	r.OnApply = func(_ uint32, name string, epoch uint32, _ uint64, version, at time.Time) {
		h.observeApply(n, r, name, epoch, version, at)
	}
	r.OnModeChange = h.modeChangeHook(n)
	r.OnJoinAccept = func(epoch uint32, specs int) {
		what := "join"
		if observer {
			what = "observer subscription"
		}
		h.logf("%s: %s accepted at epoch %d (%d specs); catch-up begins", n.Name, what, epoch, specs)
		if _, rejoining := h.rejoinAt[n.Name]; rejoining {
			if _, seen := h.joinAcceptAt[n.Name]; !seen {
				// First accept after a rejoin: the anti-entropy transfer
				// starts here. Its completion (OnJoined) closes the
				// window the disk-vs-network sweep measures.
				h.joinAcceptAt[n.Name] = h.clk.Now()
			}
		}
		for _, spec := range h.sc.Objects {
			h.mon.BeginCatchUp(n.Name, spec.Name, n.Clk.Now())
		}
	}
	r.OnStateTransfer = func(epoch uint32, objects int) {
		if _, rejoining := h.rejoinAt[n.Name]; !rejoining || !r.Joined() {
			return
		}
		if _, seen := h.joinedAt[n.Name]; seen {
			return
		}
		// The final chunk just landed: this instant — not the rejoiner's
		// next poll — closes the transfer window the disk-vs-network
		// sweep measures.
		h.joinedAt[n.Name] = h.clk.Now()
		h.logf("%s: anti-entropy streamed %d entr%s at epoch %d, %v after the join was accepted",
			n.Name, objects, plural(objects, "y", "ies"), epoch,
			h.clk.Now().Sub(h.joinAcceptAt[n.Name]).Round(100*time.Microsecond))
	}
	r.OnCatchUp = func(_ uint32, object string, staleness time.Duration) {
		h.mon.EndCatchUp(n.Name, object)
		h.logf("%s: %q caught up (staleness %v)", n.Name, object,
			staleness.Round(100*time.Microsecond))
		if !observer && r.CatchUpRemaining() == 0 {
			h.caughtUpAt[n.Name] = h.clk.Now()
			h.logf("%s: catch-up complete, %v after rejoin", n.Name,
				h.clk.Now().Sub(h.rejoinAt[n.Name]).Round(100*time.Microsecond))
		}
	}
	if !observer {
		det, err := failover.NewDetector(n.Clk, h.sc.Detector, r.SendPing, func() {
			h.onPrimaryDead(n)
		})
		if err != nil {
			return err
		}
		r.OnPingAck = det.OnAck
		n.Det = det
		det.Start()
	}
	if h.sc.ClockSync {
		h.startUncertaintyFeed(n, r)
	}
	return nil
}

// modeChangeHook retargets the monitor at the instant a shadowing
// replica (backup or observer) learns of a governor mode change: a shed
// object's image carries no temporal guarantee; a compressed (or
// restored) object is judged against the announced effective bound.
// Observers receive ModeChange through the relay, so downstream bounds
// track the governor exactly like a backup's.
func (h *Harness) modeChangeHook(n *Node) func(uint32, string, core.ObjectMode, time.Duration) {
	return func(_ uint32, name string, mode core.ObjectMode, bound time.Duration) {
		h.logf("%s: %q now %s (effective bound %v)", n.Name, name, mode, bound)
		if mode == core.ModeShed {
			h.mon.Suspend(n.Name, name, n.Clk.Now())
			return
		}
		h.mon.Resume(n.Name, name)
		h.mon.SetBound(n.Name, name, n.Clk.Now(), bound)
	}
}

// unknownTheta is the uncertainty published before the first sync probe
// completes: the upstream offset is unknown, not zero, so every bound
// starts unverifiable instead of being judged against stamps that may
// carry the node's whole boot-time clock offset.
const unknownTheta = time.Hour

// startUncertaintyFeed streams the backup's clock-sync error bound into
// the temporal monitor: every tick, the current θ is attached to every
// tracked object at the node's site, so the monitor tightens its bounds
// by exactly the uncertainty the node itself admits to — and suspends
// (rather than lies) when θ exceeds the slack. The feed instant is mapped
// onto the upstream timeline through the estimated offset, the same
// correction observeApply applies to update stamps.
func (h *Harness) startUncertaintyFeed(n *Node, b *core.Replica) {
	feed := clock.NewPeriodic(h.clk, 0, 10*time.Millisecond, func() {
		if n.Rep != b || !b.Running() || !b.Role().Shadows() {
			return
		}
		rep, ok := b.ClockSyncReport()
		if !ok {
			return
		}
		at, theta := n.Clk.Now(), time.Duration(unknownTheta)
		if rep.Valid {
			at, theta = at.Add(rep.Offset), rep.Theta
		}
		for _, spec := range h.sc.Objects {
			wasUnv := h.mon.Unverifiable(n.Name, spec.Name)
			h.mon.SetUncertainty(n.Name, spec.Name, at, theta)
			if nowUnv := h.mon.Unverifiable(n.Name, spec.Name); nowUnv != wasUnv {
				if nowUnv {
					h.logf("%s: θ=%v exceeds %q's slack; bound unverifiable",
						n.Name, theta.Round(100*time.Microsecond), spec.Name)
				} else {
					h.logf("%s: θ=%v back under %q's slack; bound verifiable again",
						n.Name, theta.Round(100*time.Microsecond), spec.Name)
				}
			}
		}
	})
	h.uncertaintyFeeds = append(h.uncertaintyFeeds, feed)
}

// observeApply is the streaming invariant hook: every applied update is
// fed to the monitor and checked for epoch and version monotonicity.
func (h *Harness) observeApply(n *Node, r *core.Replica, object string, epoch uint32, version, at time.Time) {
	n.applies++
	if h.sc.ClockSync {
		// The applied stamp comes from the node's own (possibly faulty)
		// clock while the version stamp comes from the primary's; naively
		// differencing them would charge the clock offset to the protocol.
		// Map the applied instant onto the upstream timeline through the
		// node's own offset estimate — its residual error is bounded by θ,
		// which the uncertainty feed subtracts from the bound.
		if rep, ok := r.ClockSyncReport(); ok && rep.Valid {
			at = at.Add(rep.Offset)
		}
	}
	h.mon.RecordUpdate(n.Name, object, version, at)

	if max := h.maxEpoch[n.Name]; epoch != 0 && epoch < max {
		h.violationf("split-brain: %s applied %q state from fenced epoch %d after hearing epoch %d",
			n.Name, object, epoch, max)
	} else if epoch > max {
		h.maxEpoch[n.Name] = epoch
		h.logf("%s adopts epoch %d", n.Name, epoch)
	}

	key := n.Name + "/" + object
	if last, ok := h.lastVersion[key]; ok && version.Before(last) {
		h.violationf("version regression: %s applied %q version %v after %v",
			n.Name, object, version.Format("15:04:05.000"), last.Format("15:04:05.000"))
	}
	h.lastVersion[key] = version

	// The repair cycle's streaming invariant: while the backup still marks
	// an object catching up, the monitor must have its bound suspended —
	// an image with no temporal guarantee yet must never be reported
	// consistent.
	if r.CatchingUp(object) && !h.mon.Suspended(n.Name, object) {
		h.violationf("catch-up: %s applied %q while catching up but the monitor counted it consistent",
			n.Name, object)
	}
}

// onPrimaryDead is a backup detector's death verdict, ruled on by
// failover.Takeover. If another backup's detector fired first, this node
// yields and rejoins the new primary as a backup; otherwise it promotes
// itself (Section 4.4), keeping any other live backup as its peer.
func (h *Harness) onPrimaryDead(n *Node) {
	h.logf("%s: detector declares primary dead after %d misses", n.Name, h.sc.Detector.MaxMisses)
	p, err := failover.Takeover(n.Rep, failover.PromoteOptions{
		Service:  ServiceName,
		SelfAddr: n.Addr,
		Names:    h.ns,
		OnPlaceholderDrop: func(ids []uint32) {
			h.logf("%s: promotion dropped %d spec-less placeholder object(s) %v",
				n.Name, len(ids), ids)
		},
		ActivateClient: func(p *core.Replica) {
			h.active = p
			h.activeNode = n.Name
		},
	})
	if errors.Is(err, failover.ErrSuperseded) {
		h.logf("%s: %v", n.Name, err)
		n.Rep.Stop()
		n.Rep, n.Det = nil, nil
		if err := h.attachBackup(n); err != nil {
			h.violationf("yield on %s: %v", n.Name, err)
		}
		return
	}
	if err != nil {
		h.violationf("promotion on %s failed: %v", n.Name, err)
		return
	}
	h.wireGovernor(p)
	n.Det = nil
	var peers []xkernel.Addr
	for _, name := range h.order {
		if o := h.nodes[name]; o.running(core.RoleBackup) != nil {
			peers = append(peers, o.Addr)
		}
	}
	h.promotions++
	h.promotedAt = append(h.promotedAt, h.clk.Now())
	// The in-place promotion starts with an empty peer set; re-attach the
	// surviving backups, which drives each through the anti-entropy join
	// exchange to parity under the new epoch.
	for _, addr := range peers {
		if err := p.AddPeer(addr); err != nil {
			h.violationf("promotion on %s: attach survivor %s: %v", n.Name, addr, err)
		}
	}
	h.logf("%s: promoted to primary, epoch %d, peers %v", n.Name, p.Epoch(), peers)
}

// node resolves a fault's target, recording a violation for an unknown name.
func (h *Harness) node(fault, name string) *Node {
	n := h.nodes[name]
	if n == nil {
		h.violationf("%s: unknown node %q", fault, name)
	}
	return n
}

// downNode resolves a revival fault's target: nil unless the node is
// known and down. A node running a replica in any role is already up.
func (h *Harness) downNode(fault, name string) *Node {
	n := h.node(fault, name)
	if n != nil && n.Rep != nil {
		h.logf("%s %s: already up, no-op", fault, name)
		return nil
	}
	return n
}

// crash kills the named node.
func (h *Harness) crash(name string) {
	n := h.node("crash", name)
	if n == nil {
		return
	}
	n.EP.SetDown(true)
	if n.Det != nil {
		n.Det.Stop()
		n.Det = nil
	}
	if r := n.Rep; r != nil {
		r.Stop()
		n.Rep = nil
		// The live primary's failure detector notices a dead backup; the
		// harness delivers the verdict instantly for determinism. An
		// observer's death costs the cluster nothing it must react to:
		// downstream subscribers simply go stale — which their
		// certificates must say.
		if r.Role() == core.RoleBackup && h.active != nil && h.active.Running() && h.activeNode != name {
			h.active.SetPeerAlive(n.Addr, false)
		}
	}
	if n.Dur != nil {
		// Power goes out: the store's handle dies with the process, but
		// whatever reached the files survives for a restart-from-disk.
		n.Dur.Close()
		n.Dur = nil
	}
	h.logf("%s is down", name)
}

// restartAsBackup revives a crashed node as a backup of the current
// primary and re-integrates it (registration replay + state transfer).
func (h *Harness) restartAsBackup(name string) {
	n := h.downNode("restart", name)
	if n == nil {
		return
	}
	n.EP.SetDown(false)
	if err := h.attachBackup(n); err != nil {
		h.violationf("restart %s: %v", name, err)
	}
}

// attachBackup starts a fresh backup on the node, pointed at whatever
// primary the name service currently records, and re-integrates it with
// the serving primary: the stale peer entry (with its session and
// registration marks) is dropped and the node re-attached, which replays
// every registration and pushes a full state transfer (Section 4.4's
// recruitment path).
func (h *Harness) attachBackup(n *Node) error {
	primaryAddr, _, ok := h.ns.Lookup(ServiceName)
	if !ok {
		return fmt.Errorf("no primary in name service")
	}
	if err := h.startShadow(n, core.RoleBackup, primaryAddr); err != nil {
		return err
	}
	h.logf("%s is up as backup of %s", n.Name, primaryAddr)
	if h.active == nil || !h.active.Running() {
		return nil
	}
	addr := n.Addr
	h.active.RemovePeer(addr)
	if err := h.active.AddPeer(addr); err != nil {
		return fmt.Errorf("attach to primary: %w", err)
	}
	return nil
}

// rejoin revives a crashed node through the repair subsystem: the
// endpoint comes back up and a repair.Rejoiner drives the over-the-wire
// protocol — poll the directory, wait out the node's own stale claim if
// it was the fenced old primary, demote to a backup of the recorded
// successor, and run the chunked join exchange. Unlike restartAsBackup,
// the harness never touches the primary's peer table: the JoinRequest
// itself attaches the replica, exactly as a real redeployment would.
func (h *Harness) rejoin(name string) {
	n := h.downNode("rejoin", name)
	if n == nil {
		return
	}
	n.EP.SetDown(false)
	h.startRejoiner(n, nil)
}

// startRejoiner builds and starts the node's directory-driven rejoin
// loop. When st is non-nil (restart-from-disk), the recovered image is
// replayed into the fresh backup before its first JoinRequest, so the
// join digest advertises the disk state and anti-entropy streams only
// the gap.
func (h *Harness) startRejoiner(n *Node, st *durable.State) {
	name := n.Name
	h.rejoinAt[name] = h.clk.Now()
	// A node that started as the primary was never tracked as a backup
	// site; register its objects before catch-up marks reference them.
	for _, spec := range h.sc.Objects {
		if _, ok := h.mon.ExternalReport(name, spec.Name); !ok {
			h.mon.TrackExternal(name, spec.Name, spec.Constraint.DeltaB)
		}
	}
	cfg := repair.RejoinerConfig{
		Clock:     n.Clk,
		Service:   ServiceName,
		Directory: h.ns,
		Self:      n.Addr,
		Start: func(primary xkernel.Addr, epoch uint32) (*core.Replica, error) {
			if err := h.startShadow(n, core.RoleBackup, primary); err != nil {
				return nil, err
			}
			h.logf("%s is up, rejoining %s at epoch %d", name, primary, epoch)
			return n.Rep, nil
		},
		OnJoined: func(b *core.Replica) {
			if _, seen := h.joinedAt[name]; !seen {
				// Fallback only: OnStateTransfer records the exact
				// final-chunk instant; this path is poll-quantized.
				h.joinedAt[name] = h.clk.Now()
			}
			h.logf("%s: join exchange complete at epoch %d (source %s)",
				name, b.Epoch(), b.RecoverySource())
		},
	}
	if st != nil {
		cfg.Restore = func(b *core.Replica) (int, error) {
			restored := b.RestoreDurable(st)
			h.logf("%s: seeded %d object value(s) from the local durable tail", name, restored)
			return restored, nil
		}
	}
	rj, err := repair.NewRejoiner(cfg)
	if err != nil {
		h.violationf("rejoin %s: %v", name, err)
		return
	}
	h.rejoiners[name] = rj
	rj.Start()
	h.logf("%s polls the directory to rejoin", name)
}

// restartFromDisk revives a crashed node from its durable store: recover
// the on-disk image (tolerating whatever faults were injected while the
// node was down), reopen the store, and resume. If the directory still
// names this node — or names nobody — the node resumes as the primary
// under a fenced epoch bump; otherwise it rejoins the recorded successor
// as a backup, replaying its local tail before the join so anti-entropy
// covers only the gap.
func (h *Harness) restartFromDisk(name string) {
	n := h.downNode("restart-from-disk", name)
	if n == nil {
		return
	}
	if n.DurDir == "" {
		h.violationf("restart-from-disk %s: scenario has no durable stores", name)
		return
	}
	st, rs, err := durable.Recover(n.DurDir)
	if err != nil {
		h.violationf("restart-from-disk %s: %v", name, err)
		return
	}
	rec := diskRecovery{stats: *rs, objects: len(st.Objects), source: "disk+gap"}
	h.logf("%s: disk recovery: epoch %d, %d object(s); snapshot used=%v (epoch %d, %d tried); "+
		"replayed %d record(s) across %d segment(s); stopped=%q",
		name, st.Epoch, len(st.Objects), rs.SnapshotUsed, rs.SnapshotEpoch, rs.SnapshotsTried,
		rs.RecordsReplayed, rs.SegmentsReplayed, rs.Stopped)
	if err := h.openDurable(n); err != nil {
		h.violationf("restart-from-disk %s: %v", name, err)
		return
	}
	n.EP.SetDown(false)
	if addr, _, ok := h.ns.Lookup(ServiceName); !ok || addr == n.Addr {
		rec.source = "disk"
		h.recovered[name] = rec
		h.resumePrimaryFromDisk(n, st)
		return
	}
	h.recovered[name] = rec
	h.startRejoiner(n, st)
}

// resumePrimaryFromDisk rebuilds a serving primary from a recovered
// image (core.Replica.ResumeFromDisk): object IDs survive the power
// cycle, recovered values are seeded, and the epoch is bumped past the
// recovered one — the fencing move that invalidates any stale in-flight
// state from the pre-crash incarnation.
func (h *Harness) resumePrimaryFromDisk(n *Node, st *durable.State) {
	p, err := core.NewPrimary(h.config(n))
	if err != nil {
		h.violationf("restart-from-disk %s: %v", n.Name, err)
		return
	}
	seeded, errs := p.ResumeFromDisk(st)
	for _, err := range errs {
		h.violationf("restart-from-disk %s: %v", n.Name, err)
	}
	h.wireGovernor(p)
	n.Rep = p
	h.active = p
	h.activeNode = n.Name
	if err := h.ns.Set(ServiceName, n.Addr, p.Epoch()); err != nil {
		h.violationf("restart-from-disk %s: directory update: %v", n.Name, err)
	}
	h.logf("%s resumes as primary from disk: epoch %d, %d object(s), %d value(s) seeded",
		n.Name, p.Epoch(), len(st.Objects), seeded)
}

// startWriters begins the client workload against the active primary:
// one periodic writer per hot object, one staggered early write per
// cold object (Scenario.HotObjects; zero means everything is hot).
func (h *Harness) startWriters() {
	hot := h.sc.HotObjects
	if hot <= 0 || hot > len(h.sc.Objects) {
		hot = len(h.sc.Objects)
	}
	write := func(spec core.ObjectSpec) {
		p := h.active
		if p == nil || !p.Running() {
			return
		}
		h.writeCounts[spec.Name]++
		val := fmt.Sprintf("%s#%d@%v", spec.Name, h.writeCounts[spec.Name],
			h.clk.Now().Sub(h.start).Round(time.Millisecond))
		p.ClientWrite(spec.Name, []byte(val), nil)
	}
	for i, spec := range h.sc.Objects {
		spec := spec
		if i >= hot {
			// Cold object: written once, early, then quiescent — its
			// value still has to reach every replica, but a disk-fast
			// rejoin should never stream it over the wire again.
			h.clk.Schedule(time.Duration(i-hot)*5*time.Millisecond+20*time.Millisecond,
				func() { write(spec) })
			continue
		}
		period := h.sc.WritePeriod
		if period == 0 {
			period = spec.UpdatePeriod
		}
		w := clock.NewPeriodic(h.clk, 0, period, func() { write(spec) })
		h.writers = append(h.writers, w)
	}
}

func (h *Harness) stopWriters() {
	for _, w := range h.writers {
		w.Stop()
	}
	h.writers = nil
}

// Result is the outcome of one scenario run.
type Result struct {
	// Scenario and Seed identify the run for replay.
	Scenario string
	Seed     int64
	// Log is the virtual-timestamped event log; identical across runs of
	// the same (scenario, seed).
	Log []string
	// Violations are streaming safety violations plus failed end-state
	// invariants; empty means the run passed.
	Violations []string
	// Promotions counts backup-to-primary takeovers.
	Promotions int
	// FinalEpoch is the serving primary's epoch at the end (0 if none).
	FinalEpoch uint32
	// Elapsed is the total virtual time simulated.
	Elapsed time.Duration
	// RejoinCatchUp is the time from the last Rejoin fault's injection to
	// the instant the rejoined replica's final object passed catch-up
	// (0 when the scenario injects no rejoin, or it never completed).
	RejoinCatchUp time.Duration
	// RejoinTransfer is the time from the rejoined replica's JoinAccept
	// to the completion of its anti-entropy exchange — the pure transfer
	// window the disk-vs-network sweep compares (0 if no rejoin
	// completed). Unlike RejoinCatchUp it excludes directory polling and
	// detector/promotion latency, which are identical across modes.
	RejoinTransfer time.Duration
	// RejoinSource names where the last rejoined replica's image came
	// from: "disk+gap" after a restart-from-disk, "network" after a
	// plain rejoin, empty when no rejoin ran.
	RejoinSource string
	// RestoredObjects is how many object values restarted replicas
	// seeded from their local durable tails.
	RestoredObjects int
	// BoundViolation, UnverifiableTime, and EndTheta aggregate the
	// external-consistency accounting across every tracked
	// (site, object) pair at the end of the run: the worst per-object
	// violation time, the worst per-object unverifiable (gray-band)
	// time, and the largest clock-uncertainty bound θ still in force —
	// the quantities the clocksync bench sweep reports.
	BoundViolation   time.Duration
	UnverifiableTime time.Duration
	EndTheta         time.Duration
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Run executes a scenario to completion and evaluates its invariants.
// The run is deterministic: the same scenario and seed produce an
// identical Result, and every failure message embeds the seed so a
// replay reproduces it byte-for-byte.
func Run(sc Scenario) (*Result, error) {
	sc.normalize()
	h, err := newHarness(sc)
	if err != nil {
		return nil, err
	}
	h.logf("scenario %q seed %d: %s", sc.Name, sc.Seed, sc.Description)
	for _, inv := range sc.Invariants {
		// Checkpoint invariants capture their evidence mid-run.
		if a, ok := inv.(armer); ok {
			a.arm(h)
		}
	}
	for _, ev := range sc.Events {
		ev := ev
		h.clk.Schedule(ev.At, func() {
			h.logf("inject: %s", ev.Fault)
			ev.Fault.apply(h)
		})
	}
	h.clk.RunFor(sc.Duration)
	// The workload ends here, and so does the measured run: once the
	// source stops changing, growing wall-clock staleness is an artifact
	// of the harness, not a protocol violation. The settle phase only
	// drains in-flight traffic so end-state invariants see a quiet
	// cluster.
	h.stopWriters()
	h.mon.FinishAt(h.clk.Now())
	h.clk.RunFor(sc.Settle)

	for _, inv := range sc.Invariants {
		if err := inv.Check(h); err != nil {
			h.violationf("invariant %s: %v", inv.Name(), err)
		} else {
			h.logf("invariant %s: ok", inv.Name())
		}
	}

	res := &Result{
		Scenario:   sc.Name,
		Seed:       sc.Seed,
		Log:        h.log,
		Violations: h.violations,
		Promotions: h.promotions,
		Elapsed:    h.clk.Now().Sub(h.start),
	}
	if h.active != nil && h.active.Running() {
		res.FinalEpoch = h.active.Epoch()
	}
	for _, name := range h.order {
		for _, spec := range sc.Objects {
			r, ok := h.mon.ExternalReport(name, spec.Name)
			if !ok {
				continue
			}
			if r.ViolationTime > res.BoundViolation {
				res.BoundViolation = r.ViolationTime
			}
			if r.UnverifiableTime > res.UnverifiableTime {
				res.UnverifiableTime = r.UnverifiableTime
			}
			if r.Theta > res.EndTheta {
				res.EndTheta = r.Theta
			}
		}
	}
	for name, done := range h.caughtUpAt {
		if started, ok := h.rejoinAt[name]; ok {
			if d := done.Sub(started); d > res.RejoinCatchUp {
				res.RejoinCatchUp = d
			}
		}
	}
	for name, done := range h.joinedAt {
		if accepted, ok := h.joinAcceptAt[name]; ok {
			if d := done.Sub(accepted); d > res.RejoinTransfer {
				res.RejoinTransfer = d
			}
		}
	}
	for _, rj := range h.rejoiners {
		if st := rj.Status(); st.Joined {
			res.RejoinSource = st.Source
		}
	}
	for _, rec := range h.recovered {
		res.RestoredObjects += rec.objects
	}
	h.cleanupDurable()
	return res, nil
}
