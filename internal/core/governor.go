package core

import (
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/cpu"
	"rtpb/internal/wire"
)

// ObjectMode is an object's rung on the overload governor's degradation
// ladder.
type ObjectMode uint8

const (
	// ModeNormal is full-rate decoupled update scheduling (the admitted
	// contract).
	ModeNormal ObjectMode = iota + 1
	// ModeCompressed stretches the object's update period, trading bound
	// tightness for CPU and network headroom. The effective external
	// bound loosens by the period stretch and is announced to the backup.
	ModeCompressed
	// ModeShed suspends the object's update transmissions entirely; the
	// backup is told its image carries no temporal guarantee until the
	// object is promoted again.
	ModeShed
)

// String returns the mode name.
func (m ObjectMode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeCompressed:
		return "compressed"
	case ModeShed:
		return "shed"
	default:
		return fmt.Sprintf("ObjectMode(%d)", uint8(m))
	}
}

// GovernorConfig tunes the primary's overload governor. The governor
// samples staleness headroom, send-queue depth, and transmission deadline
// misses on the virtual clock every Interval; when the replica is
// overloaded it walks objects down the degradation ladder (normal →
// compressed → shed), least-critical first per admission ordering, and
// climbs back up with hysteresis once the overload clears.
type GovernorConfig struct {
	// Enable turns the governor on; the zero value leaves the primary
	// ungoverned (the seed's behaviour).
	Enable bool
	// Interval is the sampling period; defaults to 25ms.
	Interval time.Duration
	// DemoteStaleness is the transmission-slip fraction of an object's
	// δ_B past which the governor counts overload pressure: how far past
	// its expected update period an object's pending state has waited,
	// relative to its staleness budget. Defaults to 0.5.
	DemoteStaleness float64
	// PromoteStaleness is the slip fraction every object must be under
	// for a tick to count as healthy; defaults to 0.3. Keeping it below
	// DemoteStaleness is the ladder's hysteresis band.
	PromoteStaleness float64
	// PromoteHold is how many consecutive healthy ticks must pass before
	// one object is promoted a rung; defaults to 6.
	PromoteHold int
}

const (
	// queuePressure is the send-queue occupancy (depth over admitted
	// objects) that counts as overload pressure.
	queuePressure = 0.75
	// missPressure is how many transmission deadline misses (coalesced
	// sends) per tick count as overload pressure.
	missPressure = 2
	// compressedStretch multiplies a compressed object's update period,
	// capped so the stretched period stays within the Theorem 5 maximum
	// (δ_B − ℓ).
	compressedStretch = 1.5
)

func (g *GovernorConfig) normalize() {
	if !g.Enable {
		return
	}
	if g.Interval <= 0 {
		g.Interval = 25 * time.Millisecond
	}
	if g.DemoteStaleness <= 0 {
		g.DemoteStaleness = 0.5
	}
	if g.PromoteStaleness <= 0 {
		g.PromoteStaleness = 0.3
	}
	if g.PromoteHold <= 0 {
		g.PromoteHold = 6
	}
}

// GovernorStats summarizes the governor's activity for observers.
type GovernorStats struct {
	// Demotions and Promotions count rung transitions.
	Demotions  int
	Promotions int
	// Degraded is the number of objects currently below ModeNormal.
	Degraded int
	// Shed is the number of objects currently at ModeShed.
	Shed int
}

// governor implements the degradation ladder on the primary.
type governor struct {
	p         *Replica
	cfg       GovernorConfig
	task      *clock.Periodic
	modes     map[uint32]ObjectMode
	healthy   int
	occStreak int
	seq       uint64
	stats     GovernorStats
}

func newGovernor(p *Replica) *governor {
	g := &governor{p: p, cfg: p.cfg.Governor, modes: make(map[uint32]ObjectMode)}
	g.task = clock.NewPeriodic(p.clk, g.cfg.Interval, g.cfg.Interval, g.tick)
	return g
}

func (g *governor) stop() {
	if g.task != nil {
		g.task.Stop()
	}
}

// mode returns the object's current rung (normal when never demoted).
func (g *governor) mode(id uint32) ObjectMode {
	if m, ok := g.modes[id]; ok {
		return m
	}
	return ModeNormal
}

// shed reports whether the object's transmissions are suspended.
func (g *governor) shed(id uint32) bool { return g.mode(id) == ModeShed }

// periodFor returns the object's effective update period in mode m: the
// admitted r_i, or the compressed stretch capped at the Theorem 5 maximum
// δ_B − ℓ.
func (g *governor) periodFor(o *object, m ObjectMode) time.Duration {
	if m != ModeCompressed {
		return o.updatePeriod
	}
	stretched := time.Duration(float64(o.updatePeriod) * compressedStretch)
	if ceil := o.spec.Constraint.DeltaB - g.p.cfg.Ell; ceil > 0 && stretched > ceil {
		stretched = ceil
	}
	if stretched < o.updatePeriod {
		stretched = o.updatePeriod
	}
	return stretched
}

// effectiveBound is the external bound the primary still maintains for
// the object in mode m: the admitted δ_B, loosened by the period stretch
// when compressed, or zero (no guarantee) when shed.
func (g *governor) effectiveBound(o *object, m ObjectMode) time.Duration {
	switch m {
	case ModeCompressed:
		return o.spec.Constraint.DeltaB + (g.periodFor(o, ModeCompressed) - o.updatePeriod)
	case ModeShed:
		return 0
	default:
		return o.spec.Constraint.DeltaB
	}
}

// tick samples the overload signals and moves at most one object one rung.
func (g *governor) tick() {
	p := g.p
	if !p.running {
		return
	}
	misses := p.deadlineMisses
	p.deadlineMisses = 0

	objs := p.adm.ordered()
	if len(objs) == 0 {
		return
	}
	now := p.clk.Now()
	worstLag := 0.0
	for _, o := range objs {
		if g.mode(o.id) == ModeShed {
			continue
		}
		worstLag = max(worstLag, g.lagFraction(o, now))
	}
	maxOcc := 0.0
	for _, pr := range p.peers {
		if pr.alive && pr.queue != nil {
			maxOcc = max(maxOcc, float64(pr.queue.depth())/float64(len(objs)))
		}
	}

	// Synchronized update tasks legitimately spike the queue for a
	// drain's worth of time each period; occupancy only counts as
	// overload pressure when it persists across consecutive ticks.
	if maxOcc >= queuePressure {
		g.occStreak++
	} else {
		g.occStreak = 0
	}
	pressured := worstLag >= g.cfg.DemoteStaleness ||
		g.occStreak >= 2 ||
		misses >= missPressure
	healthy := worstLag < g.cfg.PromoteStaleness && misses == 0 &&
		maxOcc < queuePressure/2

	switch {
	case pressured:
		g.healthy = 0
		g.demoteOne(objs)
	case healthy:
		g.healthy++
		if g.healthy >= g.cfg.PromoteHold {
			g.healthy = 0
			g.promoteOne(objs)
		}
	default:
		g.healthy = 0
	}
}

// lagFraction estimates how much of the object's staleness budget the
// transmission backlog has consumed: the slip past the object's expected
// update period — time since the last update left for the backup while
// newer state waits, minus the period itself — as a fraction of δ_B. In
// steady state a new version is always pending for most of the period,
// so the raw waiting time is subtracted down to the part the schedule
// does not already account for; an unloaded primary reads ~0 here
// regardless of how r_i compares to δ_B.
func (g *governor) lagFraction(o *object, now time.Time) float64 {
	if !o.hasData || o.spec.Constraint.DeltaB <= 0 {
		return 0
	}
	var lag time.Duration
	switch {
	case o.lastSentAt.IsZero():
		lag = now.Sub(o.version)
	case o.version.After(o.lastSentVersion):
		lag = now.Sub(o.lastSentAt)
	default:
		return 0 // everything sent: the backup is as current as we are
	}
	lag -= g.periodFor(o, g.mode(o.id))
	if lag <= 0 {
		return 0
	}
	return float64(lag) / float64(o.spec.Constraint.DeltaB)
}

// demoteOne walks the least-critical demotable object one rung down:
// every normal object compresses before anything is shed, and within a
// rung the latest-admitted object goes first. Critical objects and the
// most-critical admitted object are never shed.
func (g *governor) demoteOne(objs []*object) {
	for i := len(objs) - 1; i >= 0; i-- {
		o := objs[i]
		if !o.spec.Critical && g.mode(o.id) == ModeNormal {
			g.setMode(o, ModeCompressed)
			return
		}
	}
	for i := len(objs) - 1; i >= 1; i-- { // objs[0] is never shed
		o := objs[i]
		if !o.spec.Critical && g.mode(o.id) == ModeCompressed {
			g.setMode(o, ModeShed)
			return
		}
	}
}

// promoteOne climbs the most-critical demoted object one rung up: shed
// objects resume (compressed) before any compressed object returns to
// normal rate.
func (g *governor) promoteOne(objs []*object) {
	for _, o := range objs {
		if g.mode(o.id) == ModeShed {
			g.setMode(o, ModeCompressed)
			return
		}
	}
	for _, o := range objs {
		if g.mode(o.id) == ModeCompressed {
			g.setMode(o, ModeNormal)
			return
		}
	}
}

// setMode applies one rung transition: retime or gate the update task,
// announce the change to the backups (re-sent for loss tolerance), and
// fire the observer hook.
func (g *governor) setMode(o *object, m ObjectMode) {
	old := g.mode(o.id)
	if old == m {
		return
	}
	g.modes[o.id] = m
	if m.less(old) {
		g.stats.Promotions++
	} else {
		g.stats.Demotions++
	}
	g.recount()
	g.p.retimeUpdateTask(o)
	if m.less(old) && m != ModeShed {
		// Climbing out of shed or compressed: refresh the backup's image
		// immediately rather than waiting out a full (possibly stretched)
		// period.
		g.p.transmit(o, cpu.Low)
	}
	g.announce(o, m)
	if g.p.OnModeChange != nil {
		g.p.OnModeChange(o.id, o.spec.Name, m, g.effectiveBound(o, m))
	}
}

// less reports whether m is a higher (healthier) rung than other.
func (m ObjectMode) less(other ObjectMode) bool { return m < other }

// announce broadcasts the ModeChange and schedules two spaced re-sends so
// a lossy link still learns the ladder position; stale re-sends are
// suppressed by the per-object sequence number on the receiver and by the
// latest-wins check here.
func (g *governor) announce(o *object, m ObjectMode) {
	g.seq++
	msg := &wire.ModeChange{
		Epoch:          g.p.epoch,
		ObjectID:       o.id,
		Mode:           uint8(m),
		Seq:            g.seq,
		EffectiveBound: g.effectiveBound(o, m),
	}
	g.p.broadcast(msg)
	spacing := g.p.cfg.retryBase()
	for i := 1; i <= 2; i++ {
		g.p.clk.Schedule(time.Duration(i)*spacing, func() {
			if g.p.running && g.mode(o.id) == m {
				g.p.broadcast(msg)
			}
		})
	}
}

// overloaded reports whether any object currently sits below ModeNormal —
// the signal the anti-entropy chunk sender yields to, so catch-up traffic
// never competes with a primary already shedding load.
func (g *governor) overloaded() bool {
	return g.stats.Degraded > 0 || g.stats.Shed > 0
}

// forget drops a removed object's ladder position.
func (g *governor) forget(id uint32) {
	if _, ok := g.modes[id]; ok {
		delete(g.modes, id)
		g.recount()
	}
}

func (g *governor) recount() {
	g.stats.Degraded, g.stats.Shed = 0, 0
	for _, m := range g.modes {
		if m != ModeNormal {
			g.stats.Degraded++
		}
		if m == ModeShed {
			g.stats.Shed++
		}
	}
}
