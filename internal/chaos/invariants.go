package chaos

import (
	"bytes"
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/temporal"
)

// Converged asserts that, after the settle phase, every running backup
// holds exactly the active primary's current value for every object.
type Converged struct{}

// Name implements Checker.
func (Converged) Name() string { return "converged" }

// Check implements Checker.
func (Converged) Check(h *Harness) error {
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary to converge to")
	}
	backups := 0
	for _, name := range h.order {
		n := h.nodes[name]
		if n.running(core.RoleBackup) == nil {
			continue
		}
		backups++
		for _, spec := range h.sc.Objects {
			want, _, ok := h.active.Value(spec.Name)
			if !ok {
				return fmt.Errorf("primary has no value for %q", spec.Name)
			}
			got, _, ok := n.Rep.Value(spec.Name)
			if !ok {
				return fmt.Errorf("%s has no value for %q", name, spec.Name)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("%s diverged on %q: %q != primary's %q", name, spec.Name, got, want)
			}
		}
	}
	if backups == 0 {
		return fmt.Errorf("no running backup to check")
	}
	return nil
}

// BoundHeld asserts the external temporal-consistency bound δ^B held for
// the whole run at BackupNode, for every object.
type BoundHeld struct{}

// Name implements Checker.
func (BoundHeld) Name() string { return "external-bound" }

// Check implements Checker.
func (BoundHeld) Check(h *Harness) error {
	site := BackupNode
	for _, spec := range h.sc.Objects {
		r, ok := h.mon.ExternalReport(site, spec.Name)
		if !ok {
			return fmt.Errorf("no report for %s/%s", site, spec.Name)
		}
		if r.Updates == 0 {
			return fmt.Errorf("%s/%s never applied an update", site, spec.Name)
		}
		if !r.Consistent() {
			return fmt.Errorf("%s/%s: %v beyond δB=%v in %d excursions (max staleness %v)",
				site, spec.Name, r.ViolationTime, r.Delta, r.Excursions, r.MaxStaleness)
		}
	}
	return nil
}

// armer is the optional mid-run side of a Checker: arm is called before
// the scenario starts so the invariant can schedule evidence capture at
// virtual instants of its choosing.
type armer interface {
	arm(h *Harness)
}

// checkpoint is a mid-run external-consistency capture.
type checkpoint struct {
	report temporal.ExternalReport
	ok     bool
}

// BoundHeldUntil asserts the external bound held at BackupNode up
// to an offset from scenario start — the checkpoint form used when a
// later fault legitimately breaks the bound (e.g. a crash window). The
// evidence is captured at that instant during the run through the
// monitor's non-destructive snapshot hook, so the full-run statistics
// are untouched.
type BoundHeldUntil struct {
	// Until is the offset from scenario start up to which the bound must
	// have held.
	Until time.Duration
}

func (c BoundHeldUntil) key(object string) string {
	return fmt.Sprintf("%s/%s@%v", BackupNode, object, c.Until)
}

// arm schedules the snapshot capture at the checkpoint instant.
func (c BoundHeldUntil) arm(h *Harness) {
	h.clk.Schedule(c.Until, func() {
		for _, spec := range h.sc.Objects {
			r, ok := h.mon.SnapshotExternal(BackupNode, spec.Name, h.clk.Now())
			h.checkpoints[c.key(spec.Name)] = checkpoint{report: r, ok: ok}
		}
	})
}

// Name implements Checker.
func (c BoundHeldUntil) Name() string { return fmt.Sprintf("external-bound-until-%v", c.Until) }

// Check implements Checker.
func (c BoundHeldUntil) Check(h *Harness) error {
	for _, spec := range h.sc.Objects {
		ck, captured := h.checkpoints[c.key(spec.Name)]
		if !captured {
			return fmt.Errorf("checkpoint at +%v was never captured", c.Until)
		}
		if !ck.ok {
			return fmt.Errorf("no report for %s/%s", BackupNode, spec.Name)
		}
		r := ck.report
		if r.Updates == 0 {
			return fmt.Errorf("%s/%s never applied an update", BackupNode, spec.Name)
		}
		if !r.Consistent() {
			return fmt.Errorf("%s/%s: %v beyond δB=%v before +%v",
				BackupNode, spec.Name, r.ViolationTime, r.Delta, c.Until)
		}
	}
	return nil
}

// InterBoundHeld asserts every registered inter-object constraint held
// at BackupNode.
type InterBoundHeld struct{}

// Name implements Checker.
func (InterBoundHeld) Name() string { return "inter-object-bound" }

// Check implements Checker.
func (InterBoundHeld) Check(h *Harness) error {
	site := BackupNode
	for _, ioc := range h.sc.InterObjects {
		r, ok := h.mon.InterObjectReport(site, ioc.I, ioc.J)
		if !ok {
			return fmt.Errorf("no report for %s/(%s,%s)", site, ioc.I, ioc.J)
		}
		if r.Checks == 0 {
			return fmt.Errorf("%s/(%s,%s) never evaluated", site, ioc.I, ioc.J)
		}
		if !r.Consistent() {
			return fmt.Errorf("%s/(%s,%s): %d violations, max distance %v > δ_ij=%v",
				site, ioc.I, ioc.J, r.Violations, r.MaxDistance, r.Delta)
		}
	}
	return nil
}

// GovernorDegradedAt asserts the overload governor had demoted at least
// MinDegraded objects (MinShed of them to shed) at an instant mid-run —
// the checkpoint form proving the ladder actually engaged during the
// overload window, not merely that the end state looks healthy. The
// evidence is captured during the run by the armer hook.
type GovernorDegradedAt struct {
	// At is the offset from scenario start at which to capture the
	// ladder state.
	At time.Duration
	// MinDegraded is the minimum number of objects below normal mode.
	MinDegraded int
	// MinShed is the minimum number of objects at shed.
	MinShed int
}

func (c GovernorDegradedAt) key() string { return fmt.Sprintf("governor@%v", c.At) }

// arm schedules the ladder-state capture.
func (c GovernorDegradedAt) arm(h *Harness) {
	h.clk.Schedule(c.At, func() {
		p := h.active
		if p == nil || !p.Running() {
			return
		}
		h.govCheckpoints[c.key()] = govCheckpoint{
			stats: p.GovernorStats(),
			modes: p.Modes(),
			ok:    true,
		}
	})
}

// Name implements Checker.
func (c GovernorDegradedAt) Name() string { return fmt.Sprintf("governor-degraded-at-%v", c.At) }

// Check implements Checker.
func (c GovernorDegradedAt) Check(h *Harness) error {
	ck, captured := h.govCheckpoints[c.key()]
	if !captured || !ck.ok {
		return fmt.Errorf("ladder checkpoint at +%v was never captured", c.At)
	}
	if ck.stats.Degraded < c.MinDegraded {
		return fmt.Errorf("at +%v only %d objects degraded (modes %v), want at least %d",
			c.At, ck.stats.Degraded, ck.modes, c.MinDegraded)
	}
	if ck.stats.Shed < c.MinShed {
		return fmt.Errorf("at +%v only %d objects shed (modes %v), want at least %d",
			c.At, ck.stats.Shed, ck.modes, c.MinShed)
	}
	return nil
}

// GovernorRecovered asserts the degradation ladder was exercised and
// fully unwound: the governor demoted at least MinDemotions rungs during
// the run, promoted exactly as many back, and every object ended at
// normal mode.
type GovernorRecovered struct {
	// MinDemotions is the minimum rung transitions down; 0 means 1.
	MinDemotions int
}

// Name implements Checker.
func (GovernorRecovered) Name() string { return "governor-recovered" }

// Check implements Checker.
func (c GovernorRecovered) Check(h *Harness) error {
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary")
	}
	min := c.MinDemotions
	if min == 0 {
		min = 1
	}
	s := h.active.GovernorStats()
	if s.Demotions < min {
		return fmt.Errorf("governor demoted %d rungs, want at least %d (overload never engaged it)",
			s.Demotions, min)
	}
	if s.Promotions != s.Demotions {
		return fmt.Errorf("governor promoted %d of %d demoted rungs back", s.Promotions, s.Demotions)
	}
	for name, m := range h.active.Modes() {
		if m != core.ModeNormal {
			return fmt.Errorf("object %q ended at %s, want normal", name, m)
		}
	}
	return nil
}

// RetransmitDamped asserts the gap-recovery throttle of the backup on
// BackupNode engaged: at most MaxRequests retransmission requests left
// it while at least MinSuppressed were absorbed by the backoff window.
type RetransmitDamped struct {
	// MaxRequests caps the requests actually sent.
	MaxRequests int
	// MinSuppressed floors the requests absorbed by the throttle.
	MinSuppressed int
}

// Name implements Checker.
func (RetransmitDamped) Name() string { return "retransmit-damped" }

// Check implements Checker.
func (c RetransmitDamped) Check(h *Harness) error {
	site := BackupNode
	n := h.nodes[site]
	if n == nil || n.running(core.RoleBackup) == nil {
		return fmt.Errorf("no running backup on %s", site)
	}
	req, sup := n.Rep.RetransmitStats()
	if req > c.MaxRequests {
		return fmt.Errorf("%d retransmission requests sent, want at most %d (%d suppressed)",
			req, c.MaxRequests, sup)
	}
	if sup < c.MinSuppressed {
		return fmt.Errorf("only %d requests suppressed (%d sent), want at least %d — throttle never engaged",
			sup, req, c.MinSuppressed)
	}
	return nil
}

// Promotions asserts the exact number of backup-to-primary takeovers.
type Promotions struct {
	// Want is the expected count.
	Want int
}

// Name implements Checker.
func (c Promotions) Name() string { return fmt.Sprintf("promotions=%d", c.Want) }

// Check implements Checker.
func (c Promotions) Check(h *Harness) error {
	if h.promotions != c.Want {
		return fmt.Errorf("saw %d promotions, want %d", h.promotions, c.Want)
	}
	return nil
}

// EpochIs asserts the serving primary's final epoch — the epoch
// monotonicity capstone (streaming checks catch any intermediate
// regression; this pins the end state).
type EpochIs struct {
	// Want is the expected epoch.
	Want uint32
}

// Name implements Checker.
func (c EpochIs) Name() string { return fmt.Sprintf("epoch=%d", c.Want) }

// Check implements Checker.
func (c EpochIs) Check(h *Harness) error {
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary")
	}
	if e := h.active.Epoch(); e != c.Want {
		return fmt.Errorf("final epoch %d, want %d", e, c.Want)
	}
	return nil
}

// PromotedAfter asserts the first promotion happened at or after an
// offset from scenario start (e.g. not before a suppressed detector was
// resumed).
type PromotedAfter struct {
	// Offset is the earliest admissible promotion instant.
	Offset time.Duration
}

// Name implements Checker.
func (c PromotedAfter) Name() string { return fmt.Sprintf("promoted-after-%v", c.Offset) }

// Check implements Checker.
func (c PromotedAfter) Check(h *Harness) error {
	if len(h.promotedAt) == 0 {
		return fmt.Errorf("no promotion happened")
	}
	earliest := h.start.Add(c.Offset)
	if h.promotedAt[0].Before(earliest) {
		return fmt.Errorf("promoted at +%v, before +%v",
			h.promotedAt[0].Sub(h.start), c.Offset)
	}
	return nil
}

// ActiveServes asserts the serving primary is running and holds a value
// for every object — the liveness floor for post-failover scenarios
// where no backup remains to compare against.
type ActiveServes struct{}

// Name implements Checker.
func (ActiveServes) Name() string { return "active-serves" }

// Check implements Checker.
func (ActiveServes) Check(h *Harness) error {
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary")
	}
	for _, spec := range h.sc.Objects {
		if _, _, ok := h.active.Value(spec.Name); !ok {
			return fmt.Errorf("active primary on %s has no value for %q", h.activeNode, spec.Name)
		}
	}
	return nil
}

// NoSplitBrain asserts every running backup ended at the active
// primary's epoch. Together with the always-on streaming check (a backup
// must never apply state from a fenced epoch), it is the no-split-brain
// property of the epoch mechanism.
type NoSplitBrain struct{}

// Name implements Checker.
func (NoSplitBrain) Name() string { return "no-split-brain" }

// Check implements Checker.
func (NoSplitBrain) Check(h *Harness) error {
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary")
	}
	want := h.active.Epoch()
	for _, name := range h.order {
		n := h.nodes[name]
		if n.running(core.RoleBackup) == nil {
			continue
		}
		if e := n.Rep.Epoch(); e != want {
			return fmt.Errorf("%s at epoch %d, active primary at %d", name, e, want)
		}
	}
	return nil
}

// RejoinCaughtUp asserts a rejoined node completed the full repair
// cycle: its backup finished the chunked join exchange, every object
// went through a monitor catch-up cycle (suspended until an update
// landed inside δ_i^B — nothing was reported consistent early), and the
// serving primary counts the replica synced, restoring the replication
// degree.
type RejoinCaughtUp struct {
	// Node names the rejoined node.
	Node string
}

// Name implements Checker.
func (c RejoinCaughtUp) Name() string { return fmt.Sprintf("rejoin-caught-up-%s", c.Node) }

// Check implements Checker.
func (c RejoinCaughtUp) Check(h *Harness) error {
	n := h.nodes[c.Node]
	if n == nil || n.running(core.RoleBackup) == nil {
		return fmt.Errorf("no running backup on %s", c.Node)
	}
	if !n.Rep.Joined() {
		return fmt.Errorf("%s never completed its join exchange", c.Node)
	}
	if rem := n.Rep.CatchUpRemaining(); rem != 0 {
		return fmt.Errorf("%s still has %d objects catching up", c.Node, rem)
	}
	for _, spec := range h.sc.Objects {
		if h.mon.CatchingUp(c.Node, spec.Name) {
			return fmt.Errorf("monitor still marks %s/%s catching up", c.Node, spec.Name)
		}
		if h.mon.CatchUps(c.Node, spec.Name) == 0 {
			return fmt.Errorf("%s/%s never went through a catch-up cycle — the join was never marked stale", c.Node, spec.Name)
		}
	}
	if _, ok := h.caughtUpAt[c.Node]; !ok {
		return fmt.Errorf("%s's catch-up completion instant was never recorded", c.Node)
	}
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary")
	}
	if got := h.active.SyncedPeers(); got < 1 {
		return fmt.Errorf("primary counts %d synced peers; the rejoined replica never reached parity", got)
	}
	return nil
}

// DiskRecovered asserts a node actually restarted from its durable
// store: recovery ran, survived whatever disk faults were injected, and
// produced a non-trivial image.
type DiskRecovered struct {
	// Node names the restarted node.
	Node string
	// MinObjects floors the recovered object count; 0 means 1.
	MinObjects int
	// Source, when non-empty, pins the restart path: "disk" for a
	// resumed primary, "disk+gap" for a backup that replayed its tail
	// before rejoining.
	Source string
	// Stopped, when non-empty, pins why replay stopped ("torn-tail",
	// "corrupt-record", "missing-segment") — the proof that an injected
	// disk fault was actually hit and tolerated rather than silently
	// absent.
	Stopped string
}

// Name implements Checker.
func (c DiskRecovered) Name() string { return fmt.Sprintf("disk-recovered-%s", c.Node) }

// Check implements Checker.
func (c DiskRecovered) Check(h *Harness) error {
	rec, ok := h.recovered[c.Node]
	if !ok {
		return fmt.Errorf("%s never recovered from disk", c.Node)
	}
	min := c.MinObjects
	if min == 0 {
		min = 1
	}
	if rec.objects < min {
		return fmt.Errorf("%s recovered %d object(s), want at least %d", c.Node, rec.objects, min)
	}
	if c.Source != "" && rec.source != c.Source {
		return fmt.Errorf("%s recovered via %q, want %q", c.Node, rec.source, c.Source)
	}
	if c.Stopped != "" && rec.stats.Stopped != c.Stopped {
		return fmt.Errorf("%s's replay stopped with %q, want %q — the injected fault was never encountered",
			c.Node, rec.stats.Stopped, c.Stopped)
	}
	return nil
}

// RejoinSynced asserts a rejoined node completed its join exchange and
// the serving primary counts it synced — the transfer-level half of
// RejoinCaughtUp, for workloads whose cold objects legitimately never
// complete a temporal catch-up cycle (no fresh write lands within δ_B
// of the join, so the monitor keeps their bounds suspended).
type RejoinSynced struct {
	// Node names the rejoined node.
	Node string
}

// Name implements Checker.
func (c RejoinSynced) Name() string { return fmt.Sprintf("rejoin-synced-%s", c.Node) }

// Check implements Checker.
func (c RejoinSynced) Check(h *Harness) error {
	n := h.nodes[c.Node]
	if n == nil || n.running(core.RoleBackup) == nil {
		return fmt.Errorf("no running backup on %s", c.Node)
	}
	if !n.Rep.Joined() {
		return fmt.Errorf("%s never completed its join exchange", c.Node)
	}
	if _, ok := h.joinedAt[c.Node]; !ok {
		return fmt.Errorf("%s's join completion instant was never recorded", c.Node)
	}
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary")
	}
	if got := h.active.SyncedPeers(); got < 1 {
		return fmt.Errorf("primary counts %d synced peers; the rejoined replica never reached parity", got)
	}
	return nil
}

// honestBoundsEvidence accumulates one HonestBounds armer's mid-run
// observations.
type honestBoundsEvidence struct {
	checks   int
	worstErr time.Duration
	failures []string
}

// HonestBounds is the clock-sync honesty invariant: every honestEvery
// during the run, the backup's estimated offset is compared against the
// injected ground truth (the difference of the two nodes' SkewedClock
// true offsets, which no protocol participant can see), and the true
// error must never exceed the θ the estimator reports. An estimator that
// under-reports θ — claims a tighter bound than it has — fails here even
// if every scenario assertion happens to pass, and so does a run with
// fewer than honestMinChecks valid estimates (a vacuous pass).
type HonestBounds struct {
	// Site is the probing backup's node; empty means BackupNode.
	Site string
}

const (
	honestEvery     = 25 * time.Millisecond
	honestMinChecks = 10
)

func (c HonestBounds) site() string {
	if c.Site == "" {
		return BackupNode
	}
	return c.Site
}

// arm schedules the periodic ground-truth comparison.
func (c HonestBounds) arm(h *Harness) {
	ev := &honestBoundsEvidence{}
	h.honestChecks[c.site()] = ev
	clock.NewPeriodic(h.clk, honestEvery, honestEvery, func() {
		n := h.nodes[c.site()]
		if n == nil || n.running(core.RoleBackup) == nil {
			return
		}
		rep, ok := n.Rep.ClockSyncReport()
		if !ok || !rep.Valid {
			return
		}
		p := h.nodes[h.activeNode]
		if p == nil {
			return
		}
		// Ground truth: estimated offset targets (primary clock − backup
		// clock), which by construction is the difference of the injected
		// true offsets.
		truth := p.Clk.TrueOffset() - n.Clk.TrueOffset()
		err := rep.Offset - truth
		if err < 0 {
			err = -err
		}
		ev.checks++
		if err > ev.worstErr {
			ev.worstErr = err
		}
		if err > rep.Theta {
			ev.failures = append(ev.failures, fmt.Sprintf(
				"+%v: |estimate−truth| = %v exceeds reported θ=%v",
				h.clk.Now().Sub(h.start).Round(100*time.Microsecond), err, rep.Theta))
		}
	})
}

// Name implements Checker.
func (c HonestBounds) Name() string { return fmt.Sprintf("honest-bounds-%s", c.site()) }

// Check implements Checker.
func (c HonestBounds) Check(h *Harness) error {
	ev := h.honestChecks[c.site()]
	if ev == nil {
		return fmt.Errorf("never armed")
	}
	if len(ev.failures) > 0 {
		return fmt.Errorf("θ dishonest in %d of %d checks, first: %s",
			len(ev.failures), ev.checks, ev.failures[0])
	}
	if ev.checks < honestMinChecks {
		return fmt.Errorf("only %d checks ran with a valid estimate, want at least %d", ev.checks, honestMinChecks)
	}
	return nil
}

// UnverifiableWindow asserts the monitor's suspend-not-lie behaviour was
// actually exercised: every object at BackupNode spent at least MinTime
// unverifiable (θ exceeded the slack), accrued zero violations of the
// verifiable bound, and recovered to a verifiable state by the end of
// the run.
type UnverifiableWindow struct {
	// MinTime floors each object's total unverifiable time.
	MinTime time.Duration
}

// Name implements Checker.
func (UnverifiableWindow) Name() string { return "unverifiable-window" }

// Check implements Checker.
func (c UnverifiableWindow) Check(h *Harness) error {
	site := BackupNode
	for _, spec := range h.sc.Objects {
		r, ok := h.mon.ExternalReport(site, spec.Name)
		if !ok {
			return fmt.Errorf("no report for %s/%s", site, spec.Name)
		}
		if r.UnverifiableTime < c.MinTime {
			return fmt.Errorf("%s/%s unverifiable for %v, want at least %v — θ never ate the slack",
				site, spec.Name, r.UnverifiableTime, c.MinTime)
		}
		if r.UnverifiableSpells == 0 {
			return fmt.Errorf("%s/%s recorded unverifiable time but no spell", site, spec.Name)
		}
		if !r.Consistent() {
			return fmt.Errorf("%s/%s: %v charged beyond the verifiable bound — the monitor lied instead of suspending",
				site, spec.Name, r.ViolationTime)
		}
		if r.Unverifiable {
			return fmt.Errorf("%s/%s ended unverifiable=true, want false", site, spec.Name)
		}
		if r.Verified() {
			return fmt.Errorf("%s/%s claims Verified() despite %v unverifiable — the honesty flag is broken",
				site, spec.Name, r.UnverifiableTime)
		}
	}
	return nil
}

// observerCertEvidence accumulates one ObserverHonestCerts armer's
// samples.
type observerCertEvidence struct {
	samples  int
	stale    int
	fresh    int
	failures []string
}

// ObserverHonestCerts is the certificate-honesty invariant for an
// observer under fault: every 20 ms inside a window — typically a
// partition — every certificate the observer serves is compared against
// ground truth. Version stamps ride the relay stream unchanged, so the
// true staleness of the observer's image is exactly the fabric-clock age
// of its version stamp; the certificate must never understate it
// (Age+Theta < truth would mean a relay restamped or renumbered the
// stream — staleness laundering), and once the truth exceeds the
// object's δ_B the certificate must have stopped claiming Fresh: stale
// is served as provably stale, never silently fresh. MinStale and
// MinFresh floor the samples that actually landed on each side of the
// bound, so a pass can't be vacuous.
type ObserverHonestCerts struct {
	// Node names the observer to sample.
	Node string
	// From and To bound the sampling window (offsets from start).
	From, To time.Duration
	// MinStale floors the provably-stale (non-Fresh) samples; zero means
	// no staleness is required of the window.
	MinStale int
	// MinFresh floors the Fresh samples; zero means none required.
	MinFresh int
}

func (c ObserverHonestCerts) key() string {
	return fmt.Sprintf("%s@%v-%v", c.Node, c.From, c.To)
}

// arm schedules the periodic ground-truth comparison across the window.
func (c ObserverHonestCerts) arm(h *Harness) {
	ev := &observerCertEvidence{}
	h.obsChecks[c.key()] = ev
	task := clock.NewPeriodic(h.clk, c.From, 20*time.Millisecond, func() {
		n := h.nodes[c.Node]
		if n == nil || n.running(core.RoleObserver) == nil {
			return
		}
		now := h.clk.Now()
		for _, spec := range h.sc.Objects {
			cert, ok := n.Rep.Certificate(spec.Name)
			if !ok {
				continue
			}
			// Ground truth: the version stamp was written by the primary's
			// unskewed clock, so its fabric-clock age is the image's true
			// staleness — a quantity no chain participant can see directly.
			truth := now.Sub(cert.Version)
			if truth < 0 {
				truth = 0
			}
			ev.samples++
			if cert.Age+cert.Theta < truth {
				ev.failures = append(ev.failures, fmt.Sprintf(
					"+%v: %q age=%v θ=%v understates true staleness %v",
					now.Sub(h.start).Round(100*time.Microsecond),
					spec.Name, cert.Age, cert.Theta, truth))
			}
			if truth > spec.Constraint.DeltaB && cert.Fresh() {
				ev.failures = append(ev.failures, fmt.Sprintf(
					"+%v: %q claims fresh (age=%v θ=%v within δB=%v) while truly %v stale",
					now.Sub(h.start).Round(100*time.Microsecond),
					spec.Name, cert.Age, cert.Theta, cert.Bound, truth))
			}
			if cert.Fresh() {
				ev.fresh++
			} else {
				ev.stale++
			}
		}
	})
	h.clk.Schedule(c.To, task.Stop)
}

// Name implements Checker.
func (c ObserverHonestCerts) Name() string {
	return fmt.Sprintf("observer-honest-certs-%s@%v", c.Node, c.From)
}

// Check implements Checker.
func (c ObserverHonestCerts) Check(h *Harness) error {
	ev := h.obsChecks[c.key()]
	if ev == nil {
		return fmt.Errorf("never armed")
	}
	if len(ev.failures) > 0 {
		return fmt.Errorf("%d of %d samples dishonest, first: %s",
			len(ev.failures), ev.samples, ev.failures[0])
	}
	if ev.samples == 0 {
		return fmt.Errorf("no certificate was ever sampled in the window — the observer never served")
	}
	if ev.stale < c.MinStale {
		return fmt.Errorf("only %d of %d samples were provably stale, want at least %d — the fault never bit",
			ev.stale, ev.samples, c.MinStale)
	}
	if ev.fresh < c.MinFresh {
		return fmt.Errorf("only %d of %d samples were fresh, want at least %d — the chain never recovered",
			ev.fresh, ev.samples, c.MinFresh)
	}
	return nil
}

// ObserverExcluded asserts the role lattice's exclusion held to the end:
// every observer is still an observer (no promotion or recruitment ever
// flipped one into the failover lattice), every observer completed its
// subscription join, the serving primary counts exactly the voting
// backups as synced, and its peer table marks every directly-attached
// observer as such.
type ObserverExcluded struct {
	// SyncedPeers is the expected voting peer count at the primary.
	SyncedPeers int
}

// Name implements Checker.
func (ObserverExcluded) Name() string { return "observer-excluded" }

// Check implements Checker.
func (c ObserverExcluded) Check(h *Harness) error {
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary")
	}
	if len(h.obsOrder) == 0 {
		return fmt.Errorf("scenario attaches no observers")
	}
	for _, name := range h.obsOrder {
		n := h.nodes[name]
		if n.Rep == nil || !n.Rep.Running() {
			return fmt.Errorf("%s is not running an observer", name)
		}
		if role := n.Rep.Role(); role != core.RoleObserver {
			return fmt.Errorf("%s ended as %v — an observer entered the failover lattice", name, role)
		}
		if !n.Rep.Joined() {
			return fmt.Errorf("%s never completed its subscription join", name)
		}
	}
	if got := h.active.SyncedPeers(); got != c.SyncedPeers {
		return fmt.Errorf("primary counts %d synced peers, want %d — an observer leaked into the quorum",
			got, c.SyncedPeers)
	}
	direct := 0
	for _, spec := range h.sc.Observers {
		if spec.Upstream == h.activeNode {
			direct++
		}
	}
	if got := h.active.ObserverPeers(); got != direct {
		return fmt.Errorf("primary marks %d observer peer(s), want %d", got, direct)
	}
	return nil
}

// ObserverConverged asserts every observer ended holding the active
// primary's exact value for every object, at its correct hop depth —
// the chain healed, the relayed stream (plus downstream gap recovery)
// drained the divergence, and the depth accounting survived the fault
// schedule. Freshness at the end is NOT asserted here: the settle phase
// stops the writers, so every certificate legitimately ages out; a
// post-heal ObserverHonestCerts window asserts recovery while the
// workload still runs.
type ObserverConverged struct{}

// Name implements Checker.
func (ObserverConverged) Name() string { return "observer-converged" }

// Check implements Checker.
func (ObserverConverged) Check(h *Harness) error {
	if h.active == nil || !h.active.Running() {
		return fmt.Errorf("no running primary")
	}
	if len(h.obsOrder) == 0 {
		return fmt.Errorf("scenario attaches no observers")
	}
	depth := map[string]int{}
	for _, spec := range h.sc.Observers {
		if spec.Upstream == PrimaryNode {
			depth[spec.Name] = 1
		} else {
			depth[spec.Name] = depth[spec.Upstream] + 1
		}
	}
	for _, name := range h.obsOrder {
		n := h.nodes[name]
		if n.running(core.RoleObserver) == nil {
			return fmt.Errorf("%s is not running an observer", name)
		}
		for _, spec := range h.sc.Objects {
			want, _, ok := h.active.Value(spec.Name)
			if !ok {
				return fmt.Errorf("primary has no value for %q", spec.Name)
			}
			cert, ok := n.Rep.Certificate(spec.Name)
			if !ok {
				return fmt.Errorf("%s has no certificate for %q", name, spec.Name)
			}
			if !bytes.Equal(cert.Value, want) {
				return fmt.Errorf("%s diverged on %q: %q != primary's %q",
					name, spec.Name, cert.Value, want)
			}
			if cert.Depth != depth[name] {
				return fmt.Errorf("%s serves %q at depth %d, want %d",
					name, spec.Name, cert.Depth, depth[name])
			}
		}
	}
	return nil
}

// Progress asserts every running backup applied at least a minimum
// number of updates, guarding scenarios against passing vacuously.
type Progress struct {
	// MinApplies is the floor per backup node; 0 means 1.
	MinApplies int
}

// Name implements Checker.
func (Progress) Name() string { return "progress" }

// Check implements Checker.
func (c Progress) Check(h *Harness) error {
	min := c.MinApplies
	if min == 0 {
		min = 1
	}
	for _, name := range h.order {
		n := h.nodes[name]
		if n.Rep == nil {
			continue // crashed and never restarted
		}
		if name == h.activeNode {
			continue
		}
		if n.applies < min {
			return fmt.Errorf("%s applied %d updates, want at least %d", name, n.applies, min)
		}
	}
	return nil
}
