// Package chaos is a deterministic fault-injection harness for the RTPB
// stack. A Scenario scripts a fault schedule — timed link degradation,
// symmetric and asymmetric partitions, replica crash and restart,
// heartbeat suppression, duplication storms — against a harnessed cluster
// of core.Replica replicas wired with the failover machinery
// (detectors, name service, promotion), all driven by clock.SimClock and
// netsim.Network so a run is a pure function of (scenario, seed).
//
// While the scenario plays out, the harness continuously checks the
// protocol's safety properties: external temporal-consistency bounds via
// temporal.Monitor, per-object version monotonicity, epoch monotonicity
// across failover, and no-split-brain fencing (once a backup has heard
// from epoch E, state from any epoch < E must never be applied). Each
// scenario additionally declares end-state invariants (Checker values)
// such as convergence, expected promotion counts, or bound reports.
//
// Every run produces an event log of virtual-timestamped lines; two runs
// of the same scenario with the same seed produce byte-identical logs,
// so any failure is replayed exactly with
//
//	go test -race -run Chaos ./internal/chaos -seed=N
//
// The canned scenario catalogue (Catalogue) is the regression backbone:
// table-driven tests run every scenario, and cmd/rtpbench's "chaos"
// subcommand runs them standalone.
package chaos

import (
	"time"

	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
)

// Scenario is one scripted chaos experiment: a cluster shape, a workload,
// a fault schedule, and the invariants that must hold at the end.
type Scenario struct {
	// Name identifies the scenario in the catalogue and in test names.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Seed drives the network fabric's loss/jitter/duplication draws.
	Seed int64
	// Duration is the fault-and-workload phase in virtual time.
	Duration time.Duration
	// Settle is the drain interval after Duration (writers stopped) that
	// lets in-flight updates land before invariants are evaluated.
	// Defaults to 400ms.
	Settle time.Duration
	// Link is the default link quality; zero value means 2ms delay + 1ms
	// jitter, the EXPERIMENTS.md baseline.
	Link netsim.LinkParams
	// Detector tunes the backup-side failure detectors; zero value means
	// failover.DefaultDetectorConfig.
	Detector failover.DetectorConfig
	// Objects are the replicated objects; empty means one standard
	// 64-byte object ("pressure", p=40ms, δP=50ms, δB=250ms).
	Objects []core.ObjectSpec
	// InterObjects are inter-object constraints registered after the
	// objects and tracked by the monitor at every backup site.
	InterObjects []temporal.InterObjectConstraint
	// WritePeriod is the client write period per object; defaults to each
	// object's UpdatePeriod.
	WritePeriod time.Duration
	// Costs overrides the primary's CPU cost model; zero value keeps
	// core.DefaultCosts. Overload scenarios inflate it so the governor
	// has real contention to govern.
	Costs core.CostModel
	// FrameBatch overrides the primary's per-slot frame batch bound; zero
	// keeps the core default. Overload-ladder scenarios pin it to 1: frame
	// coalescing amortizes the fixed per-datagram send cost, which absorbs
	// the very contention those scenarios exist to create.
	FrameBatch int
	// Governor configures the primary's overload governor; the zero
	// value leaves it off. When a backup learns of a mode change, the
	// harness retargets the monitor: shed objects have their bound
	// waived (and re-armed on promotion), compressed objects are judged
	// against the announced effective bound.
	Governor core.GovernorConfig
	// Standby adds a third node hosting a second backup with its own
	// detector, the promotion site for split-brain scenarios.
	Standby bool
	// Durable equips every node with an epoch-pruned durable store
	// (internal/durable) in deterministic synchronous mode, rooted in a
	// run-private temporary directory that is removed when the run ends.
	// Crash faults close the store but keep its files on disk, so
	// DiskFault and RestartFromDisk act on exactly what a real power
	// cycle would find.
	Durable bool
	// HotObjects limits the periodic client workload to the first N
	// objects; the rest ("cold") receive exactly one staggered write
	// each early in the run, modelling a large mostly-quiescent state —
	// the shape where disk-fast rejoin's advantage over a full
	// anti-entropy transfer shows. Zero means every object is hot.
	HotObjects int
	// DisableFencing runs every backup with core's epoch-fencing
	// ablation, the knob used to demonstrate that the split-brain
	// invariant actually catches the regression it exists for.
	DisableFencing bool
	// ClockSync enables clock-sync estimation on every backup (probes
	// piggybacked on heartbeats) and wires the harness's skew-aware
	// monitoring: applied stamps are mapped onto the upstream timeline
	// through each node's offset estimate, and the estimator's error
	// bound θ is streamed into the monitor, which tightens every external
	// bound by θ and marks it unverifiable — suspended, never silently
	// violated — when θ exceeds the slack.
	ClockSync bool
	// ClockSyncMaxDriftPPM is the worst-case relative clock drift the
	// estimators assume when aging their error bounds between probes
	// (parts per million; zero means the clocksync default, 200).
	ClockSyncMaxDriftPPM float64
	// Observers attaches read-only observer nodes, each subscribed to the
	// primary or to another observer (chained fan-out). Observer nodes
	// live outside the failover lattice: no detector, no quorum weight,
	// no recruitment — they drive their own join and heartbeat loops and
	// serve certificate reads whose honesty the observer invariants
	// sample against ground truth.
	Observers []ObserverSpec
	// Events is the fault schedule, applied at their At offsets.
	Events []FaultEvent
	// Invariants are evaluated after the settle phase; streaming
	// violations (epoch/version monotonicity, fenced-epoch leaks) are
	// always collected regardless.
	Invariants []Checker
	// Full marks long-running scenarios skipped in -quick mode.
	Full bool
}

// ObserverSpec attaches one read-only observer node to the harnessed
// cluster. Chains are declared by naming another observer as the
// upstream; specs are attached in order, so an upstream must appear
// before its subscribers.
type ObserverSpec struct {
	// Name is the observer node's host name on the fabric.
	Name string
	// Upstream names the node the observer subscribes to: PrimaryNode,
	// or an earlier observer's Name for a chained hop.
	Upstream string
}

// FaultEvent is one scheduled fault injection.
type FaultEvent struct {
	// At is the virtual-time offset from scenario start.
	At time.Duration
	// Fault is the injection to apply.
	Fault Fault
}

// Fault is a single injectable fault. Implementations mutate the harness
// deterministically and describe themselves for the event log.
type Fault interface {
	// String renders the fault for the event log.
	String() string
	// apply injects the fault.
	apply(h *Harness)
}

// Checker is an end-of-run invariant.
type Checker interface {
	// Name identifies the invariant in logs and failures.
	Name() string
	// Check returns an error describing the violation, or nil.
	Check(h *Harness) error
}

// normalize fills scenario defaults in place.
func (s *Scenario) normalize() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Duration == 0 {
		s.Duration = 2 * time.Second
	}
	if s.Settle == 0 {
		s.Settle = 400 * time.Millisecond
	}
	if s.Link == (netsim.LinkParams{}) {
		s.Link = netsim.LinkParams{Delay: 2 * time.Millisecond, Jitter: time.Millisecond}
	}
	if s.Detector == (failover.DetectorConfig{}) {
		s.Detector = failover.DefaultDetectorConfig()
	}
	if len(s.Objects) == 0 {
		s.Objects = []core.ObjectSpec{StandardObject()}
	}
}

// StandardObject is the catalogue's default replicated object: the
// EXPERIMENTS.md baseline parameters.
func StandardObject() core.ObjectSpec {
	return core.ObjectSpec{
		Name:         "pressure",
		Size:         64,
		UpdatePeriod: 40 * time.Millisecond,
		Constraint: temporal.ExternalConstraint{
			DeltaP: 50 * time.Millisecond,
			DeltaB: 250 * time.Millisecond,
		},
	}
}
