package shard

import (
	"errors"
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/topo"
	"rtpb/internal/xkernel"
)

// Config describes a simulated sharded cluster.
type Config struct {
	// Shards is K, the number of primary-backup groups; defaults to 2.
	Shards int
	// Seed drives the fabric's loss/jitter/duplication draws.
	Seed int64
	// Link is the default link quality; zero value means 2ms delay + 1ms
	// jitter, the EXPERIMENTS.md baseline.
	Link netsim.LinkParams
	// Detector tunes the backup-side failure detectors; zero value means
	// failover.DefaultDetectorConfig.
	Detector failover.DetectorConfig
	// Headroom is the placer's per-shard utilization reserve; defaults to
	// DefaultHeadroom. Negative means zero (no reserve).
	Headroom float64
	// Costs configures every shard's primary identically (see
	// core.Config); every shard schedules normally, with the default
	// test and slack.
	Costs core.CostModel
	// Governor configures every shard primary's overload governor; the
	// zero value leaves the shards ungoverned. Health exports the ladder
	// state that the gateway tier's admission-aware backpressure keys on.
	Governor core.GovernorConfig
	// DisableAdmissionControl turns off every shard's admission test
	// (overload experiments only: it lets a workload that provably cannot
	// be scheduled through, so the governor has something real to shed).
	DisableAdmissionControl bool
	// Observers attaches this many read-only observer replicas to each
	// shard; defaults to 0 (no observer tier). Observers serve
	// certificate reads (Cluster.Certificate prefers the least-stale
	// fresh one) but never count toward quorums or failover.
	Observers int
	// ObserverChainDepth arranges each shard's observers into fan-out
	// chains of this length: 1 (the default) subscribes every observer
	// directly to the primary; 2 chains them pairwise
	// (primary→obs→obs), and so on. Deeper chains offload the primary's
	// fan-out at the price of compounded certificate staleness.
	ObserverChainDepth int
}

func (cfg *Config) normalize() {
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Link == (netsim.LinkParams{}) {
		cfg.Link = netsim.LinkParams{Delay: 2 * time.Millisecond, Jitter: time.Millisecond}
	}
	if cfg.Detector == (failover.DetectorConfig{}) {
		cfg.Detector = failover.DefaultDetectorConfig()
	}
	switch {
	case cfg.Headroom == 0:
		cfg.Headroom = DefaultHeadroom
	case cfg.Headroom < 0:
		cfg.Headroom = 0
	}
	if cfg.Observers < 0 {
		cfg.Observers = 0
	}
	if cfg.ObserverChainDepth <= 0 {
		cfg.ObserverChainDepth = 1
	}
}

// Shard is one primary-backup group. Each shard runs the full
// two-replica protocol — its own admission controller, update pump,
// failure detector and promotion path — independently of its siblings:
// a failover in one group never touches another group's schedule.
type Shard struct {
	c       *Cluster
	index   int
	service string

	// hosts[i] runs reps[i]: first the pair ("shardI-p", "shardI-b"),
	// then the observer tier, chain-ordered.
	hosts []*topo.Host
	reps  []*core.Replica

	det        *failover.Detector
	promotions int
}

// Utilization implements Target with the shard primary's resident
// utilization.
func (sh *Shard) Utilization() float64 { return sh.Primary().Utilization() }

// UtilizationWith implements Target with the primary's what-if estimate.
// A shard whose primary is not serving reports no fit.
func (sh *Shard) UtilizationWith(spec core.ObjectSpec) (float64, bool) {
	p := sh.serving()
	if p == nil {
		return 0, false
	}
	return p.UtilizationWith(spec)
}

// Admit implements Target by running the shard's real admission
// pipeline.
func (sh *Shard) Admit(spec core.ObjectSpec) core.Decision {
	p := sh.serving()
	if p == nil {
		return core.Decision{Reason: "shard primary not running"}
	}
	return p.Register(spec)
}

// primaryIndex locates the host the directory names for the shard: the
// current primary's, which a takeover moves to the backup's host.
func (sh *Shard) primaryIndex() int {
	addr, _, _ := sh.c.ns.Lookup(sh.service)
	if sh.hosts[1].Addr == addr {
		return 1
	}
	return 0
}

// Primary exposes the shard's current primary: the replica on the host
// the directory names (stopped after an unrecovered crash).
func (sh *Shard) Primary() *core.Replica { return sh.reps[sh.primaryIndex()] }

// serving returns the shard's primary while it is running, else nil.
func (sh *Shard) serving() *core.Replica {
	if p := sh.Primary(); p.Running() {
		return p
	}
	return nil
}

// Backup exposes the shard's backup replica (nil once it promoted or
// yielded).
func (sh *Shard) Backup() *core.Replica {
	if b := sh.reps[1]; b.Running() && b.Role() == core.RoleBackup {
		return b
	}
	return nil
}

// site is the shard's backup site in the monitor.
func (sh *Shard) site() string { return sh.hosts[1].Name }

// Cluster is K primary-backup groups behind one client-facing surface:
// the Placer spreads registrations across the groups, the Router owns
// the object→shard map, and writes and reads forward to the owning
// group's current primary. All groups share one simulated fabric, one
// virtual clock, one name service and one temporal-consistency monitor
// (tracking each group's backup site independently).
type Cluster struct {
	cfg    Config
	fabric *topo.Fabric
	clk    *clock.SimClock
	ns     *failover.NameService
	mon    *temporal.Monitor
	placer Placer
	router *Router
	shards []*Shard

	start       time.Time
	log         []string
	writers     []*clock.Periodic
	writeCounts map[string]int
	lastWritten map[string][]byte
}

// NewCluster builds and starts a sharded cluster: K groups of two nodes
// each ("shardI-p", "shardI-b") on one fabric, each group's backup
// watching its own primary through a failure detector.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.normalize()
	f, err := topo.New(cfg.Seed, cfg.Link)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:         cfg,
		fabric:      f,
		clk:         f.Clock,
		ns:          failover.NewNameService(),
		mon:         temporal.NewMonitor(),
		placer:      Placer{Headroom: cfg.Headroom},
		router:      NewRouter(),
		writeCounts: make(map[string]int),
		lastWritten: make(map[string][]byte),
	}
	c.start = c.clk.Now()
	for i := 0; i < cfg.Shards; i++ {
		sh, err := c.buildShard(i)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// config builds the configuration of a replica on host h, in any role:
// promotion is in-place, so whatever a backup is built with is what it
// will serve with as a primary. Callers add Peer or Peers.
func (c *Cluster) config(h *topo.Host) core.Config {
	return core.Config{
		Clock:                   h.Clk,
		Port:                    h.Port,
		Ell:                     5 * time.Millisecond, // ℓ, the admission controllers' delay bound
		Costs:                   c.cfg.Costs,
		Governor:                c.cfg.Governor,
		DisableAdmissionControl: c.cfg.DisableAdmissionControl,
	}
}

func (c *Cluster) buildShard(i int) (*Shard, error) {
	sh := &Shard{c: c, index: i, service: fmt.Sprintf("shard%d", i)}
	for _, role := range []string{"p", "b"} {
		h, err := c.fabric.Host(fmt.Sprintf("shard%d-%s", i, role))
		if err != nil {
			return nil, err
		}
		sh.hosts = append(sh.hosts, h)
	}
	pcfg := c.config(sh.hosts[0])
	pcfg.Peers = []xkernel.Addr{sh.hosts[1].Addr}
	p, err := core.NewPrimary(pcfg)
	if err != nil {
		return nil, err
	}
	if err := c.ns.Set(sh.service, sh.hosts[0].Addr, 1); err != nil {
		return nil, err
	}
	bcfg := c.config(sh.hosts[1])
	bcfg.Peer = sh.hosts[0].Addr
	b, err := core.NewBackup(bcfg)
	if err != nil {
		return nil, err
	}
	sh.reps = []*core.Replica{p, b}
	if err := c.wireBackup(sh); err != nil {
		return nil, err
	}
	for j := 0; j < c.cfg.Observers; j++ {
		if err := c.attachObserver(sh, j); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// attachObserver builds observer j of a shard's tier on its own node
// ("shardI-oJ") and subscribes it (core.Replica.Subscribe). Chain
// placement follows ObserverChainDepth: the first observer of each
// chain subscribes to the primary, the rest to the observer before them.
func (c *Cluster) attachObserver(sh *Shard, j int) error {
	host, err := c.fabric.Host(fmt.Sprintf("shard%d-o%d", sh.index, j))
	if err != nil {
		return err
	}
	upstream := sh.hosts[0].Addr
	if j%c.cfg.ObserverChainDepth != 0 {
		upstream = sh.hosts[len(sh.hosts)-1].Addr
	}
	ocfg := c.config(host)
	ocfg.Peer = upstream
	obs, err := core.NewObserver(ocfg)
	if err != nil {
		return err
	}
	sh.hosts = append(sh.hosts, host)
	sh.reps = append(sh.reps, obs)
	obs.Subscribe(100 * time.Millisecond)
	c.logf("shard %d: observer %s subscribes to %v", sh.index, host.Name, upstream)
	return nil
}

// wireBackup attaches the monitor hooks and a fresh failure detector to
// the shard's backup replica.
func (c *Cluster) wireBackup(sh *Shard) error {
	b, site := sh.reps[1], sh.site()
	b.OnApply = func(_ uint32, name string, _ uint32, _ uint64, version, at time.Time) {
		c.mon.RecordUpdate(site, name, version, at)
	}
	// A JoinAccept (migration resync, or recruitment) marks every listed
	// object catching-up on the backup: mirror that into the monitor so a
	// not-yet-guaranteed image is never reported consistent. Each object
	// resumes when the backup declares it inside δ_i^B again.
	b.OnJoinAccept = func(epoch uint32, specs int) {
		c.logf("shard %d: %s join accepted at epoch %d (%d specs); catch-up begins",
			sh.index, site, epoch, specs)
		for _, spec := range b.Specs() {
			if !b.CatchingUp(spec.Name) {
				continue
			}
			if _, ok := c.mon.ExternalReport(site, spec.Name); !ok {
				c.mon.TrackExternal(site, spec.Name, spec.Constraint.DeltaB)
			}
			c.mon.BeginCatchUp(site, spec.Name, c.clk.Now())
		}
	}
	b.OnCatchUp = func(_ uint32, object string, staleness time.Duration) {
		c.mon.EndCatchUp(site, object)
		c.logf("shard %d: %s %q caught up (staleness %v)", sh.index, site, object,
			staleness.Round(100*time.Microsecond))
	}
	// Mirror the primary governor's announced rung into the monitor, as
	// the chaos harness does for a single pair: a shed object's image
	// carries no temporal guarantee, and a compressed (or restored) one
	// is judged against the announced effective bound. Without this a
	// governed shard under overload would book δ_B violations for load
	// it deliberately — and honestly — shed.
	b.OnModeChange = func(_ uint32, name string, mode core.ObjectMode, bound time.Duration) {
		c.logf("shard %d: %s %q now %s (effective bound %v)", sh.index, site, name, mode, bound)
		if mode == core.ModeShed {
			c.mon.Suspend(site, name, c.clk.Now())
			return
		}
		c.mon.Resume(site, name)
		c.mon.SetBound(site, name, c.clk.Now(), bound)
	}
	det, err := failover.NewDetector(sh.hosts[1].Clk, c.cfg.Detector, b.SendPing, func() {
		c.onPrimaryDead(sh)
	})
	if err != nil {
		return err
	}
	b.OnPingAck = det.OnAck
	sh.det = det
	det.Start()
	return nil
}

// onPrimaryDead is the shard's backup detector verdict, ruled on by
// failover.Takeover: promote the backup in place (Section 4.4), fencing
// the dead primary's epoch, or yield if the directory already records a
// successor. Other shards are untouched: their detectors, schedules and
// temporal accounting never observe the failure.
func (c *Cluster) onPrimaryDead(sh *Shard) {
	c.logf("shard %d: detector declares primary dead", sh.index)
	p, err := failover.Takeover(sh.reps[1], failover.PromoteOptions{
		Service:  sh.service,
		SelfAddr: sh.hosts[1].Addr,
		Names:    c.ns,
		OnPlaceholderDrop: func(ids []uint32) {
			c.logf("shard %d: promotion dropped %d spec-less placeholder object(s) %v",
				sh.index, len(ids), ids)
		},
	})
	if errors.Is(err, failover.ErrSuperseded) {
		c.logf("shard %d: %v", sh.index, err)
		sh.reps[1].Stop()
		sh.det = nil
		return
	}
	if err != nil {
		c.logf("shard %d: promotion failed: %v", sh.index, err)
		return
	}
	// The promoted replica stops being a backup site: the monitor stops
	// charging staleness to a site that no longer hosts an image.
	now := c.clk.Now()
	for _, spec := range p.Specs() {
		c.mon.Suspend(sh.site(), spec.Name, now)
	}
	sh.det = nil
	sh.promotions++
	c.logf("shard %d: %s promoted to primary, epoch %d", sh.index, sh.hosts[1].Name, p.Epoch())
}

// targets returns the shards as a placement slice (index-aligned).
func (c *Cluster) targets() []Target {
	out := make([]Target, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh
	}
	return out
}

// Place admits one object somewhere in the cluster: the placer picks a
// shard, the shard's admission controller has the final word, and the
// router binds the object to the accepting group. The returned index is
// the owning shard; on rejection it is -1 and the error wraps
// ErrClusterFull (the decision carries the last shard's reason and
// suggested δ_B, so renegotiation works exactly as against one pair).
func (c *Cluster) Place(spec core.ObjectSpec) (int, core.Decision, error) {
	if _, ok := c.router.Lookup(spec.Name); ok {
		return -1, core.Decision{}, fmt.Errorf("shard: object %q already placed", spec.Name)
	}
	idx, d, err := c.placer.Place(spec, c.targets())
	if err != nil {
		c.logf("place %q rejected: %v", spec.Name, err)
		return -1, d, err
	}
	sh := c.shards[idx]
	c.router.Assign(spec.Name, idx)
	if sh.Backup() != nil {
		if _, ok := c.mon.ExternalReport(sh.site(), spec.Name); !ok {
			c.mon.TrackExternal(sh.site(), spec.Name, spec.Constraint.DeltaB)
		}
	}
	c.logf("place %q -> shard %d (r=%v, util %.3f)", spec.Name, idx, d.UpdatePeriod, sh.Utilization())
	return idx, d, nil
}

// ErrNotPlaced reports a read, write or migration of an object the
// router does not know.
var ErrNotPlaced = errors.New("shard: object not placed")

func (c *Cluster) owner(name string) (*Shard, error) {
	idx, ok := c.router.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotPlaced, name)
	}
	return c.shards[idx], nil
}

// Write forwards a client write to the owning shard's current primary —
// the route is re-resolved on every call, so writes keep flowing to a
// shard's promoted replica after failover.
func (c *Cluster) Write(name string, data []byte, done func(time.Duration, error)) error {
	sh, err := c.owner(name)
	if err != nil {
		return err
	}
	p := sh.serving()
	if p == nil {
		return fmt.Errorf("shard: shard %d has no serving primary for %q", sh.index, name)
	}
	p.ClientWrite(name, data, done)
	return nil
}

// Read returns the owning shard primary's current value.
func (c *Cluster) Read(name string) (data []byte, version time.Time, ok bool) {
	sh, err := c.owner(name)
	if err != nil || sh.serving() == nil {
		return nil, time.Time{}, false
	}
	return sh.Primary().Value(name)
}

// Certificate returns the owning shard's current image with its
// staleness certificate (value, version, age, mode-effective δ_B, chain
// θ and depth) — the unit the gateway tier broadcasts to subscribed
// sessions. With an observer tier attached, the read is served by the
// least-stale observer that can still prove its bound, offloading the
// primary; it falls back to the primary when no observer certificate is
// fresh (attach-time catch-up, a partitioned chain, or unconverged
// clock sync — the honest cases).
func (c *Cluster) Certificate(name string) (core.Certificate, bool) {
	sh, err := c.owner(name)
	if err != nil {
		return core.Certificate{}, false
	}
	if cert, ok := sh.ObserverCertificate(name); ok {
		return cert, true
	}
	if sh.serving() == nil {
		return core.Certificate{}, false
	}
	return sh.Primary().Certificate(name)
}

// ObserverCertificate serves a read from the shard's observer tier: the
// fresh certificate with the smallest age+θ wins. ok=false when no
// observer currently holds a provably in-bound image — the caller must
// fall back to the primary rather than serve a stale read.
func (sh *Shard) ObserverCertificate(name string) (core.Certificate, bool) {
	var best core.Certificate
	found := false
	for _, obs := range sh.Observers() {
		if !obs.Running() {
			continue
		}
		cert, ok := obs.Certificate(name)
		if !ok || !cert.Fresh() {
			continue
		}
		if !found || cert.Age+cert.Theta < best.Age+best.Theta {
			best, found = cert, true
		}
	}
	return best, found
}

// Observers exposes the shard's observer replicas, chain-ordered.
func (sh *Shard) Observers() []*core.Replica { return sh.reps[2:] }

// Health is one shard's overload-governor ladder state, the
// admission-aware backpressure signal a front tier sheds on.
type Health struct {
	// Degraded and Shed count objects below ModeNormal and at ModeShed.
	Degraded int
	Shed     int
}

// Overloaded reports whether any object sits below the normal rung.
func (h Health) Overloaded() bool { return h.Degraded > 0 }

// Shedding reports whether the governor has suspended any object's
// update transmissions — the strongest backpressure signal.
func (h Health) Shedding() bool { return h.Shed > 0 }

// Health reports shard i's governor ladder state. A shard without a
// serving primary reports shedding (one degraded, one shed object): a
// front tier must not direct broadcast load at it.
func (c *Cluster) Health(i int) Health {
	if i < 0 || i >= len(c.shards) {
		return Health{}
	}
	p := c.shards[i].serving()
	if p == nil {
		return Health{Degraded: 1, Shed: 1}
	}
	gs := p.GovernorStats()
	return Health{Degraded: gs.Degraded, Shed: gs.Shed}
}

// Route resolves an object's owning shard.
func (c *Cluster) Route(name string) (int, bool) { return c.router.Lookup(name) }

// Migrate moves one object to another shard. The destination's
// admission controller is authoritative (the placer's headroom reserve
// is deliberately not enforced for an explicit migration); current
// state is seeded at the destination primary, whose backup re-syncs
// over the chunked anti-entropy transfer — the object is marked
// catching-up at the destination site until an update lands within
// δ_i^B there. Only then is the source's registration revoked, so the
// object is never without an admitted home.
func (c *Cluster) Migrate(name string, dst int) error {
	sh, err := c.owner(name)
	if err != nil {
		return err
	}
	if dst < 0 || dst >= len(c.shards) {
		return fmt.Errorf("shard: no shard %d", dst)
	}
	if dst == sh.index {
		return nil
	}
	dh, src := c.shards[dst], sh.Primary()
	spec, ok := src.Spec(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotPlaced, name)
	}
	value, version, hasData := src.Value(name)
	if d := dh.Admit(spec); !d.Accepted {
		return fmt.Errorf("shard: destination %d rejected %q: %s", dst, name, d.Reason)
	}
	if hasData {
		if err := dh.Primary().SeedObject(name, value, version); err != nil {
			return fmt.Errorf("shard: seed %q on shard %d: %w", name, dst, err)
		}
	}
	if dh.Backup() != nil {
		if _, ok := c.mon.ExternalReport(dh.site(), spec.Name); !ok {
			c.mon.TrackExternal(dh.site(), spec.Name, spec.Constraint.DeltaB)
		}
		// Push registrations and state to the destination backup through
		// the join exchange; its OnJoinAccept hook marks the image
		// catching-up until an update lands within δ_i^B.
		dh.Primary().ResyncPeers()
	}
	if err := src.RemoveObject(name); err != nil {
		return fmt.Errorf("shard: revoke %q on shard %d: %w", name, sh.index, err)
	}
	if sh.Backup() != nil {
		c.mon.Suspend(sh.site(), name, c.clk.Now())
	}
	c.router.Assign(name, dst)
	c.logf("migrate %q: shard %d -> shard %d", name, sh.index, dst)
	return nil
}

// CrashPrimary kills shard i's primary host; the shard's own detector
// notices and drives the promotion.
func (c *Cluster) CrashPrimary(i int) {
	sh := c.shards[i]
	h := sh.hosts[sh.primaryIndex()]
	sh.Primary().Stop()
	h.EP.SetDown(true)
	c.logf("shard %d: %s is down", i, h.Name)
}

// WriteEvery starts a periodic client writer for one object; each fire
// re-resolves the route, so the writer follows failovers and
// migrations. Payloads embed a sequence number and virtual timestamp,
// making convergence checks exact.
func (c *Cluster) WriteEvery(name string, period time.Duration) {
	w := clock.NewPeriodic(c.clk, 0, period, func() {
		idx, ok := c.router.Lookup(name)
		if !ok {
			return
		}
		p := c.shards[idx].serving()
		if p == nil {
			return
		}
		c.writeCounts[name]++
		val := fmt.Sprintf("%s#%d@%v", name, c.writeCounts[name],
			c.clk.Now().Sub(c.start).Round(time.Millisecond))
		c.lastWritten[name] = []byte(val)
		p.ClientWrite(name, []byte(val), nil)
	})
	c.writers = append(c.writers, w)
}

// StopWriters stops every periodic writer.
func (c *Cluster) StopWriters() {
	for _, w := range c.writers {
		w.Stop()
	}
	c.writers = nil
}

// LastWritten returns the payload of the most recent accepted writer
// fire for an object (nil if WriteEvery never wrote it).
func (c *Cluster) LastWritten(name string) []byte { return c.lastWritten[name] }

// TotalWrites counts every write the periodic writers actually issued
// (fires that found no serving primary are not counted) — the
// capacity sweep's aggregate-throughput numerator.
func (c *Cluster) TotalWrites() int {
	n := 0
	for _, count := range c.writeCounts {
		n += count
	}
	return n
}

// Status is one shard's externally visible state.
type Status struct {
	// Epoch is the serving primary's epoch (0 if none is running).
	Epoch uint32
	// Utilization is the serving primary's resident load.
	Utilization float64
	// Promotions counts backup-to-primary takeovers on this shard.
	Promotions int
}

// Statuses reports every shard's state, index-ordered.
func (c *Cluster) Statuses() []Status {
	out := make([]Status, len(c.shards))
	for i, sh := range c.shards {
		out[i].Promotions = sh.promotions
		if p := sh.serving(); p != nil {
			out[i].Epoch = p.Epoch()
			out[i].Utilization = p.Utilization()
		}
	}
	return out
}

// Shards reports K.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard exposes one group for tests and invariant checks.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Clock exposes the cluster's virtual clock.
func (c *Cluster) Clock() *clock.SimClock { return c.clk }

// Monitor exposes the temporal-consistency monitor; backup sites are
// named "shardI-b".
func (c *Cluster) Monitor() *temporal.Monitor { return c.mon }

// BackupSite returns shard i's monitor site name.
func (c *Cluster) BackupSite(i int) string { return c.shards[i].site() }

// RunFor advances virtual time.
func (c *Cluster) RunFor(d time.Duration) { c.clk.RunFor(d) }

// Schedule runs fn after d of virtual time.
func (c *Cluster) Schedule(d time.Duration, fn func()) { c.clk.Schedule(d, fn) }

// Log returns the virtual-timestamped event log; identical across runs
// with the same configuration and seed.
func (c *Cluster) Log() []string { return append([]string(nil), c.log...) }

// Logf appends one caller-supplied event to the cluster's deterministic
// virtual-timestamped log — the seam the chaos gateway scenario uses to
// interleave front-tier events with the cluster's own, so one replayable
// log covers the whole stack.
func (c *Cluster) Logf(format string, args ...any) { c.logf(format, args...) }

func (c *Cluster) logf(format string, args ...any) {
	offset := c.clk.Now().Sub(c.start).Round(100 * time.Microsecond)
	c.log = append(c.log, fmt.Sprintf("+%-9v %s", offset, fmt.Sprintf(format, args...)))
}

// Stop shuts the whole cluster down.
func (c *Cluster) Stop() {
	c.StopWriters()
	for _, sh := range c.shards {
		if sh.det != nil {
			sh.det.Stop()
			sh.det = nil
		}
		for _, r := range sh.reps {
			r.Stop()
		}
	}
}
