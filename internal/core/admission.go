package core

import (
	"fmt"
	"sort"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/sched"
	"rtpb/internal/temporal"
)

// Decision is the outcome of admission control for one registration,
// including the QoS-negotiation feedback of Section 4.2.
type Decision struct {
	// Accepted reports whether the object was admitted.
	Accepted bool
	// ObjectID is the assigned identifier when accepted.
	ObjectID uint32
	// Reason explains a rejection.
	Reason string
	// SuggestedDeltaB, when non-zero, is a δ_i^B the service estimates it
	// could accept instead, for the client to renegotiate with.
	SuggestedDeltaB time.Duration
	// UpdatePeriod is the admitted backup-update period r_i.
	UpdatePeriod time.Duration
}

// object is a replica's bookkeeping for one object: the admission ledger
// entry while serving as primary, the replicated image while serving as
// backup. One struct for both roles is what makes promotion an in-place
// transition — the table never has to be copied or re-admitted.
type object struct {
	id   uint32
	spec ObjectSpec

	// updatePeriod is r_i, the period of the backup-update task actually
	// scheduled (under SchedTestDCS this is the S_r-specialized period).
	// Backups derive it at spec installation so a later promotion can
	// start update tasks without re-running admission; zero on a spec-less
	// placeholder.
	updatePeriod time.Duration
	// nominalPeriod is the constraint-derived period (admission.period)
	// before pinwheel specialization.
	nominalPeriod time.Duration
	// interBounds are δ_ij bounds from inter-object constraints naming
	// this object; they cap both p_i (checked at admission) and r_i.
	interBounds []time.Duration

	// Replicated state. seq is the primary's send sequence while serving,
	// and the last applied sequence while backing up — the roles never
	// overlap in time, and promotion resets it with the epoch bump.
	value   []byte
	version time.Time
	hasData bool
	seq     uint64
	// spare is the image the last client write's install replaced, which
	// the next client write copies into (primary role; DESIGN.md §12).
	spare []byte

	// recvEpoch is the epoch the current value was applied under (backup
	// role; supersedes orders inbound updates by (recvEpoch, seq)).
	recvEpoch uint32

	// lastSentVersion is the version carried by the most recent update
	// transmission; lastSentAt is the instant it entered the network (the
	// governor's staleness-headroom signal).
	lastSentVersion time.Time
	lastSentSeq     uint64
	lastSentAt      time.Time

	// highPending marks a recovery retransmission already queued in the
	// high-priority CPU class (single-flight per object).
	highPending bool

	// task is the periodic update task under normal scheduling.
	task *clock.Periodic

	// pendingAcks holds critical writes awaiting backup acknowledgement,
	// keyed by the update's sequence number.
	pendingAcks map[uint64]*pendingAck

	// Gap-recovery throttle (backup role): retransNext is the earliest
	// instant another RetransmitRequest may be sent for this object;
	// retransAttempt is the backoff rung, reset once in-order traffic
	// outlives the window.
	retransNext    time.Time
	retransAttempt int

	// Overload-governor tracking (backup role): the primary's announced
	// degradation rung for this object, deduplicated by (epoch, seq).
	mode      ObjectMode
	modeSeq   uint64
	modeEpoch uint32
	// modeBound is the announced mode-effective external bound (backup
	// role): the δ_B a Certificate served from this replica advertises
	// while the primary has the object off the normal rung.
	modeBound time.Duration

	// catchingUp marks an object whose image was stale when a join
	// exchange began; it clears only once an applied update or chunk
	// lands within δ_i^B, and until then the object must not be reported
	// temporally consistent.
	catchingUp bool
}

// supersedes reports whether an inbound (epoch, seq) pair is newer than
// the object's current state. Updates are ordered by (epoch, seq): a new
// primary starts its sequence numbers afresh, so its first update must
// supersede any sequence number from the previous epoch.
func (o *object) supersedes(epoch uint32, seq uint64) bool {
	if !o.hasData {
		return true
	}
	if epoch != o.recvEpoch {
		return epoch > o.recvEpoch
	}
	return seq > o.seq
}

// admission owns the primary's object table and implements the admission
// tests of Section 4.2.
type admission struct {
	cfg     *Config
	objects map[uint32]*object
	byName  map[string]uint32
	inter   []temporal.InterObjectConstraint
	nextID  uint32
}

func newAdmission(cfg *Config) *admission {
	return &admission{
		cfg:     cfg,
		objects: make(map[uint32]*object),
		byName:  make(map[string]uint32),
		nextID:  1,
	}
}

// ordered returns the admitted objects in id (admission) order — the
// deterministic iteration every wire-visible path must use, and the
// criticality order the overload governor's ladder walks.
func (a *admission) ordered() []*object {
	ids := make([]uint32, 0, len(a.objects))
	for id := range a.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*object, len(ids))
	for i, id := range ids {
		out[i] = a.objects[id]
	}
	return out
}

// orderedIDs returns the object ids in ascending order — the deterministic
// iteration for paths that only need identifiers.
func (a *admission) orderedIDs() []uint32 {
	ids := make([]uint32, 0, len(a.objects))
	for id := range a.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// placeholder returns the object with the given wire-assigned id, creating
// a spec-less entry if none exists. Backups use it for every inbound id:
// updates can outrun the registration that names them. The id counter is
// kept ahead of every wire-installed id so that a later promotion can
// admit new objects without colliding.
func (a *admission) placeholder(id uint32) *object {
	o, ok := a.objects[id]
	if !ok {
		o = &object{id: id}
		a.objects[id] = o
	}
	if id >= a.nextID {
		a.nextID = id + 1
	}
	return o
}

// installSpec attaches a replicated spec to a backup-side object and
// derives its update period with the same rule the primary's admission
// ran — the period rides along in the ledger so an in-place promotion
// can start update tasks without re-admitting anything.
func (a *admission) installSpec(o *object, spec ObjectSpec) {
	o.spec = spec
	a.byName[spec.Name] = o.id
	if o.value == nil && spec.Size > 0 {
		o.value = make([]byte, 0, spec.Size)
	}
	o.updatePeriod = a.period(spec, o.interBounds)
	o.nominalPeriod = o.updatePeriod
}

// period is the one spelling of r_i, the backup-update period admission
// assigns spec under the inter-object bounds δ_ij that name it:
// SlackFactor times the Theorem 5 maximum (δ_i − ℓ − SkewMargin), capped
// at SlackFactor·δ_ij for each bound (Theorem 6 at the backup with
// v' = 0), and at the client period under write-through, which transmits
// once per client write. The slack is the paper's choice of half the
// maximum, room to absorb a lost update on an unreliable transport.
// SkewMargin (zero by default) reserves clock-uncertainty headroom: with
// replica clocks disagreeing by up to θ, a backup image that looks
// δ-fresh on the primary's clock may be δ+θ stale on the backup's.
func (a *admission) period(spec ObjectSpec, interBounds []time.Duration) time.Duration {
	slack := func(d time.Duration) time.Duration { return time.Duration(a.cfg.SlackFactor * float64(d)) }
	r := slack(temporal.MaxBackupPeriodTheorem5(spec.Constraint, a.cfg.Ell+a.cfg.SkewMargin))
	for _, b := range interBounds {
		r = min(r, slack(b))
	}
	if a.cfg.Scheduling == ScheduleWriteThrough {
		r = min(r, spec.UpdatePeriod)
	}
	return r
}

// taskSet builds the schedulability-test task set for the current table
// plus any extra candidate objects: per object, the backup-update task
// (period r_i, cost of one transmission) and the client-service task
// (period p_i, cost of one client write).
func (a *admission) taskSet(extra ...*object) sched.TaskSet {
	ts := make(sched.TaskSet, 0, 2*(len(a.objects)+len(extra)))
	replicas := time.Duration(a.cfg.replicaCount())
	add := func(o *object) {
		if o.spec.Name == "" || o.updatePeriod <= 0 {
			// A spec-less placeholder (orphan update at a backup) has no
			// admitted tasks; it must not divide the utilization math by a
			// zero period.
			return
		}
		ts = append(ts,
			sched.Task{
				Period: o.updatePeriod,
				WCET:   replicas * a.cfg.Costs.sendCost(o.spec.Size),
			},
			sched.Task{
				Period: o.spec.UpdatePeriod,
				WCET:   a.cfg.Costs.clientCost(o.spec.Size),
			})
		if o.spec.Critical {
			// The hybrid path transmits synchronously on every client
			// write, on top of the periodic update task.
			ts = append(ts, sched.Task{
				Period: o.spec.UpdatePeriod,
				WCET:   replicas * a.cfg.Costs.sendCost(o.spec.Size),
			})
		}
	}
	for _, o := range a.objects {
		add(o)
	}
	for _, o := range extra {
		add(o)
	}
	return ts
}

// admit runs the Section 4.2 admission pipeline for a registration. On
// acceptance the object is inserted into the table.
func (a *admission) admit(spec ObjectSpec) (*object, Decision) {
	reject := func(reason string, suggest time.Duration) (*object, Decision) {
		return nil, Decision{Accepted: false, Reason: reason, SuggestedDeltaB: suggest}
	}
	if err := spec.Validate(); err != nil {
		return reject(err.Error(), 0)
	}
	if _, dup := a.byName[spec.Name]; dup {
		return reject(fmt.Sprintf("object %q already registered", spec.Name), 0)
	}

	// Test 1: the client's update period must keep the primary's copy
	// within δ_i^P (p_i ≤ δ_i^P).
	if spec.UpdatePeriod > spec.Constraint.DeltaP {
		return reject(fmt.Sprintf("client period %v exceeds δP %v",
			spec.UpdatePeriod, spec.Constraint.DeltaP), 0)
	}

	// Test 2: the primary-backup window must exceed the communication
	// delay bound plus the reserved clock-uncertainty margin
	// (δ_i = δB − δP > ℓ + SkewMargin), or no transmission schedule can
	// keep the backup consistent on every replica's clock.
	if spec.Constraint.Delta() <= a.cfg.Ell+a.cfg.SkewMargin {
		suggest := spec.Constraint.DeltaP + 2*(a.cfg.Ell+a.cfg.SkewMargin) + spec.UpdatePeriod
		return reject(fmt.Sprintf("window δ=%v does not exceed ℓ=%v + skew margin %v",
			spec.Constraint.Delta(), a.cfg.Ell, a.cfg.SkewMargin), suggest)
	}

	r := a.period(spec, nil)
	cand := &object{id: a.nextID, spec: spec, updatePeriod: r, nominalPeriod: r}
	if r <= 0 {
		suggest := spec.Constraint.DeltaP + 2*(a.cfg.Ell+a.cfg.SkewMargin) + spec.UpdatePeriod
		return reject("derived update period is not positive", suggest)
	}
	// The update task's cost must fit its period at all.
	if c := a.cfg.Costs.sendCost(spec.Size); c > r {
		return reject(fmt.Sprintf("update transmission cost %v exceeds period %v", c, r), 0)
	}

	// Test 3: schedulability of all update and client-service tasks with
	// the candidate added (the paper's rate-monotonic test).
	if !a.cfg.DisableAdmissionControl && !a.cfg.SchedTest.feasible(a.taskSet(cand)) {
		return reject(
			fmt.Sprintf("update task set unschedulable with %d objects", len(a.objects)+1),
			a.suggestDeltaB(spec))
	}

	a.objects[cand.id] = cand
	a.byName[spec.Name] = cand.id
	a.nextID++

	if err := a.specialize(); err != nil {
		delete(a.objects, cand.id)
		delete(a.byName, spec.Name)
		_ = a.specialize() // restore the previous assignment
		return reject(err.Error(), a.suggestDeltaB(spec))
	}
	return cand, Decision{
		Accepted:     true,
		ObjectID:     cand.id,
		UpdatePeriod: cand.updatePeriod,
	}
}

// specialize is the one S_r pass. Under the DCS test with admission on,
// admission does not merely check Theorem 3's condition: after every
// change to the table it replaces every object's update period with a
// harmonic one ≤ its nominal period (Han & Lin's SpecializeSr), so the
// transmission schedule itself achieves (near-)zero phase variance.
// Specialized periods never exceed the nominals, so every temporal
// constraint keeps holding. Under any other test it does nothing.
func (a *admission) specialize() error {
	if a.cfg.SchedTest != SchedTestDCS || a.cfg.DisableAdmissionControl || len(a.objects) == 0 {
		return nil
	}
	ids := make([]uint32, 0, len(a.objects))
	ts := make(sched.TaskSet, 0, len(a.objects))
	for id, o := range a.objects {
		if o.spec.Name == "" || o.nominalPeriod <= 0 {
			continue // spec-less placeholder: nothing to specialize
		}
		ids = append(ids, id)
		ts = append(ts, sched.Task{
			Name:   o.spec.Name + "/update",
			Period: o.nominalPeriod,
			WCET:   time.Duration(a.cfg.replicaCount()) * a.cfg.Costs.sendCost(o.spec.Size),
		})
	}
	spec, ok := sched.SpecializeSr(ts)
	if !ok {
		return fmt.Errorf("S_r specialization infeasible with %d objects", len(a.objects))
	}
	for i, id := range ids {
		a.objects[id].updatePeriod = spec[i].Period
	}
	return nil
}

// suggestDeltaB searches for a larger δ_i^B that would pass the
// schedulability test, doubling the window up to a cap; zero means none
// found.
func (a *admission) suggestDeltaB(spec ObjectSpec) time.Duration {
	for scale := 2; scale <= 64; scale *= 2 {
		try := spec
		try.Constraint.DeltaB = spec.Constraint.DeltaP +
			time.Duration(scale)*spec.Constraint.Delta()
		cand := &object{spec: try, updatePeriod: a.period(try, nil)}
		if cand.updatePeriod > 0 && a.cfg.SchedTest.feasible(a.taskSet(cand)) {
			return try.Constraint.DeltaB
		}
	}
	return 0
}

// admitInterObject applies an inter-object constraint to two admitted
// objects (Section 4.2, last paragraph): each constraint is converted
// into per-object period bounds — p ≤ δ_ij at the primary, r ≤ δ_ij at
// the backup — and the tightened update tasks must remain schedulable.
// On success the constraint is recorded and both objects' update periods
// are tightened in place.
func (a *admission) admitInterObject(c temporal.InterObjectConstraint) (Decision, error) {
	if err := c.Validate(); err != nil {
		return Decision{Accepted: false, Reason: err.Error()}, err
	}
	oi, err := a.byNameOrErr(c.I)
	if err != nil {
		return Decision{Accepted: false, Reason: err.Error()}, err
	}
	oj, err := a.byNameOrErr(c.J)
	if err != nil {
		return Decision{Accepted: false, Reason: err.Error()}, err
	}

	boundI, boundJ := temporal.ConvertInterObject(c)
	// Primary-side check: the client update periods must fit within δ_ij.
	if oi.spec.UpdatePeriod > boundI || oj.spec.UpdatePeriod > boundJ {
		reason := fmt.Sprintf("client periods %v/%v exceed δ_ij %v",
			oi.spec.UpdatePeriod, oj.spec.UpdatePeriod, c.Delta)
		return Decision{Accepted: false, Reason: reason}, fmt.Errorf("%w: %s", ErrRejected, reason)
	}

	// Backup-side check: tighten r_i, r_j to δ_ij and retest
	// schedulability with the tightened set.
	tightI := a.period(oi.spec, append(oi.interBounds, boundI))
	tightJ := a.period(oj.spec, append(oj.interBounds, boundJ))
	savedI, savedJ := oi.updatePeriod, oj.updatePeriod
	savedNomI, savedNomJ := oi.nominalPeriod, oj.nominalPeriod
	oi.updatePeriod, oj.updatePeriod = tightI, tightJ
	oi.nominalPeriod, oj.nominalPeriod = tightI, tightJ
	rollback := func() {
		oi.updatePeriod, oj.updatePeriod = savedI, savedJ
		oi.nominalPeriod, oj.nominalPeriod = savedNomI, savedNomJ
		_ = a.specialize()
	}
	if !a.cfg.DisableAdmissionControl && !a.cfg.SchedTest.feasible(a.taskSet()) {
		rollback()
		reason := fmt.Sprintf("update tasks unschedulable with δ_ij=%v", c.Delta)
		return Decision{Accepted: false, Reason: reason}, fmt.Errorf("%w: %s", ErrRejected, reason)
	}
	if err := a.specialize(); err != nil {
		rollback()
		return Decision{Accepted: false, Reason: err.Error()}, fmt.Errorf("%w: %s", ErrRejected, err.Error())
	}
	oi.interBounds = append(oi.interBounds, boundI)
	oj.interBounds = append(oj.interBounds, boundJ)
	a.inter = append(a.inter, c)
	return Decision{Accepted: true}, nil
}

func (a *admission) byNameOrErr(name string) (*object, error) {
	id, ok := a.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownName, name)
	}
	return a.objects[id], nil
}

// utilization reports the admitted task set's total CPU utilization.
func (a *admission) utilization() float64 {
	return a.taskSet().Utilization()
}

// utilizationWith reports what the task set's utilization would be were
// spec admitted, without admitting it — the placement layer's
// bin-packing estimate. ok is false when no positive update period can
// be derived for the spec (the admission pipeline would reject it
// outright).
func (a *admission) utilizationWith(spec ObjectSpec) (float64, bool) {
	cand := &object{spec: spec, updatePeriod: a.period(spec, nil)}
	if cand.updatePeriod <= 0 {
		return 0, false
	}
	return a.taskSet(cand).Utilization(), true
}

// PlanAdmission dry-runs the admission pipeline over a sequence of
// object specs without standing up a replica: the specs are evaluated in
// order against a fresh controller — so capacity interactions between
// them (the schedulability test sees every earlier acceptance) are
// included — and one Decision per spec is returned. Only the
// admission-relevant config fields matter (Ell, SkewMargin, SlackFactor,
// Costs, Scheduling, SchedTest); cfg is normalized as a replica's is, and
// a config a replica would refuse rejects every spec with the reason.
// cmd/rtpbench's clocksync sweep uses it to chart admitted capacity
// against the reserved skew margin.
func PlanAdmission(cfg Config, specs []ObjectSpec) []Decision {
	err := cfg.normalize()
	a := newAdmission(&cfg)
	out := make([]Decision, 0, len(specs))
	for _, spec := range specs {
		d := Decision{Reason: fmt.Sprint(err)}
		if err == nil {
			_, d = a.admit(spec)
		}
		out = append(out, d)
	}
	return out
}
