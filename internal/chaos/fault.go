package chaos

import (
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/cpu"
	"rtpb/internal/durable"
	"rtpb/internal/netsim"
)

// Degrade sets both directions between two nodes to the given link
// parameters — loss bursts, jitter spikes, duplication storms.
type Degrade struct {
	// A and B name the nodes.
	A, B string
	// Link is the degraded quality applied in both directions.
	Link netsim.LinkParams
}

// String implements Fault.
func (f Degrade) String() string {
	return fmt.Sprintf("degrade %s<->%s loss=%.2f dup=%.2f delay=%v jitter=%v",
		f.A, f.B, f.Link.LossProb, f.Link.DuplicateProb, f.Link.Delay, f.Link.Jitter)
}

func (f Degrade) apply(h *Harness) {
	if err := h.fabric.Net.SetLinkBoth(f.A, f.B, f.Link); err != nil {
		h.violationf("degrade %s<->%s: %v", f.A, f.B, err)
	}
}

// Partition cuts both directions between two nodes.
type Partition struct {
	// A and B name the nodes.
	A, B string
}

// String implements Fault.
func (f Partition) String() string { return fmt.Sprintf("partition %s<->%s", f.A, f.B) }

func (f Partition) apply(h *Harness) { h.fabric.Net.Partition(f.A, f.B) }

// PartitionOneWay cuts only the From→To direction, the asymmetric
// failure mode (data flows, acknowledgements vanish).
type PartitionOneWay struct {
	// From and To name the cut direction.
	From, To string
}

// String implements Fault.
func (f PartitionOneWay) String() string { return fmt.Sprintf("partition %s->%s", f.From, f.To) }

func (f PartitionOneWay) apply(h *Harness) { h.fabric.Net.PartitionOneWay(f.From, f.To) }

// Heal removes cuts and explicit link degradation between two nodes,
// restoring the scenario's default link.
type Heal struct {
	// A and B name the nodes.
	A, B string
}

// String implements Fault.
func (f Heal) String() string { return fmt.Sprintf("heal %s<->%s", f.A, f.B) }

func (f Heal) apply(h *Harness) { h.fabric.Net.Heal(f.A, f.B) }

// Crash kills a node: its endpoint goes down, its replica stops, its
// detector stops. A live primary elsewhere is informed (the harness
// stands in for the primary-side failure detector so crash scenarios
// stay deterministic).
type Crash struct {
	// Node names the victim.
	Node string
}

// String implements Fault.
func (f Crash) String() string { return fmt.Sprintf("crash %s", f.Node) }

func (f Crash) apply(h *Harness) { h.crash(f.Node) }

// Restart revives a crashed node as a backup of the current primary: the
// endpoint comes back up, a fresh backup replica binds the node's port, a
// new detector starts, and the primary re-integrates it with a state
// transfer (Section 4.4's recruitment path).
type Restart struct {
	// Node names the node to revive.
	Node string
}

// String implements Fault.
func (f Restart) String() string { return fmt.Sprintf("restart %s as backup", f.Node) }

func (f Restart) apply(h *Harness) { h.restartAsBackup(f.Node) }

// Rejoin revives a crashed node through the repair subsystem's rejoin
// protocol: the endpoint comes back up and a repair.Rejoiner polls the
// directory, waits out the node's own stale claim if it was the fenced
// old primary, and joins the recorded successor entirely over the wire
// (JoinRequest, digest, chunk exchange). No harness-side recruitment —
// the difference from Restart, which re-attaches the peer directly.
type Rejoin struct {
	// Node names the node to revive.
	Node string
}

// String implements Fault.
func (f Rejoin) String() string { return fmt.Sprintf("rejoin %s via the directory", f.Node) }

func (f Rejoin) apply(h *Harness) { h.rejoin(f.Node) }

// Suppress pauses (On=true) or resumes (On=false) a backup node's
// failure detector, modelling a wedged monitoring task that misses a
// real crash.
type Suppress struct {
	// Node names the backup whose detector is paused.
	Node string
	// On selects suppression (true) or resumption (false).
	On bool
}

// String implements Fault.
func (f Suppress) String() string {
	if f.On {
		return fmt.Sprintf("suppress detector on %s", f.Node)
	}
	return fmt.Sprintf("resume detector on %s", f.Node)
}

func (f Suppress) apply(h *Harness) {
	n := h.nodes[f.Node]
	if n == nil || n.Det == nil {
		h.violationf("suppress: node %q has no detector", f.Node)
		return
	}
	n.Det.Suppress(f.On)
}

// Write performs one scripted client write on a specific node's primary
// (scenarios use it to drive a zombie primary that the automatic workload
// has abandoned).
type Write struct {
	// Node names the node whose primary services the write.
	Node string
	// Object and Value are the write.
	Object, Value string
}

// String implements Fault.
func (f Write) String() string { return fmt.Sprintf("write %s=%q at %s", f.Object, f.Value, f.Node) }

func (f Write) apply(h *Harness) {
	n := h.nodes[f.Node]
	if n == nil || n.running(core.RolePrimary) == nil {
		h.logf("write to %s dropped: no running primary", f.Node)
		return
	}
	n.Rep.ClientWrite(f.Object, []byte(f.Value), nil)
}

// CPUHog steals a node's processor with periodic high-priority bursts
// for a fixed window: every Period, a burst of Burn CPU time is submitted
// at the priority class above update transmissions, starving the
// decoupled send path exactly like a runaway co-located task. The hog is
// the overload stimulus for governor scenarios — Burn/Period is the
// stolen CPU fraction.
type CPUHog struct {
	// Node names the victim (it must currently run a primary).
	Node string
	// Period is the burst cadence.
	Period time.Duration
	// Burn is the high-priority CPU time consumed per burst.
	Burn time.Duration
	// For is the hog window; the hog stops itself after this much
	// virtual time.
	For time.Duration
}

// String implements Fault.
func (f CPUHog) String() string {
	return fmt.Sprintf("cpu-hog on %s: %v per %v for %v (%.0f%% steal)",
		f.Node, f.Burn, f.Period, f.For, 100*float64(f.Burn)/float64(f.Period))
}

func (f CPUHog) apply(h *Harness) {
	n := h.nodes[f.Node]
	if n == nil || n.running(core.RolePrimary) == nil {
		h.violationf("cpu-hog: node %q runs no primary", f.Node)
		return
	}
	proc := n.Rep.CPU()
	task := clock.NewPeriodic(h.clk, 0, f.Period, func() {
		proc.Submit(cpu.High, f.Burn, func() {})
	})
	h.hogs = append(h.hogs, task)
	h.clk.Schedule(f.For, task.Stop)
}

// ClockSkew sets a node's wall-clock offset from true time — the standing
// miscalibration a machine boots with. Timers keep their true firing
// points; only the clock's readings (and every timestamp derived from
// them) move.
type ClockSkew struct {
	// Node names the victim.
	Node string
	// Offset is the reading displacement (positive = fast clock).
	Offset time.Duration
}

// String implements Fault.
func (f ClockSkew) String() string { return fmt.Sprintf("clock on %s skewed %v", f.Node, f.Offset) }

func (f ClockSkew) apply(h *Harness) {
	if n := h.node("clock-skew", f.Node); n != nil {
		n.Clk.SetOffset(f.Offset)
	}
}

// ClockDrift sets a node's oscillator error in parts per million: the
// clock's readings, monotonic reckoning, and timer durations all run fast
// (positive) or slow (negative) by the given rate from injection onward.
type ClockDrift struct {
	// Node names the victim.
	Node string
	// PPM is the rate error in parts per million (10000 = +1%).
	PPM float64
}

// String implements Fault.
func (f ClockDrift) String() string {
	return fmt.Sprintf("clock on %s drifts %+.0fppm", f.Node, f.PPM)
}

func (f ClockDrift) apply(h *Harness) {
	if n := h.node("clock-drift", f.Node); n != nil {
		n.Clk.SetDrift(f.PPM)
	}
}

// ClockStep jumps a node's wall clock by a delta — an NTP step, a manual
// reset, a VM migration. Forward steps appear instantly; a backward step
// latches the reading (the clock parks until true time catches up, the
// behaviour of a monotonic-conditioned system clock), so time never runs
// backwards for the node's software either way.
type ClockStep struct {
	// Node names the victim.
	Node string
	// Delta is the jump (negative steps park the clock at its latch).
	Delta time.Duration
}

// String implements Fault.
func (f ClockStep) String() string { return fmt.Sprintf("clock on %s steps %+v", f.Node, f.Delta) }

func (f ClockStep) apply(h *Harness) {
	if n := h.node("clock-step", f.Node); n != nil {
		n.Clk.Step(f.Delta)
	}
}

// CrashCluster kills every node still up, in node order — the
// full-cluster power failure. Recovery is then a pure function of what
// reached the durable stores (plus whatever DiskFault corrupts before
// the restart).
type CrashCluster struct{}

// String implements Fault.
func (CrashCluster) String() string { return "crash the whole cluster" }

func (CrashCluster) apply(h *Harness) {
	for _, name := range h.order {
		if h.nodes[name].Rep != nil {
			h.crash(name)
		}
	}
}

// DiskFault corrupts a crashed node's durable store with one of
// internal/durable's injectable failure modes — torn tail, short fsync,
// bit-flipped record, missing segment, torn snapshot. The node must be
// down (a live store holds the newest segment open); the injected
// damage is deterministic for the store's contents, so runs replay
// byte-identically.
type DiskFault struct {
	// Node names the victim; its store must exist and be closed.
	Node string
	// Kind selects the failure mode.
	Kind durable.FaultKind
}

// String implements Fault.
func (f DiskFault) String() string { return fmt.Sprintf("disk fault %s on %s", f.Kind, f.Node) }

func (f DiskFault) apply(h *Harness) {
	n := h.nodes[f.Node]
	if n == nil || n.DurDir == "" {
		h.violationf("disk-fault: node %q has no durable store", f.Node)
		return
	}
	if n.Dur != nil {
		h.violationf("disk-fault: %s is still up; crash it first", f.Node)
		return
	}
	desc, err := durable.Inject(n.DurDir, f.Kind)
	if err != nil {
		h.violationf("disk-fault %s on %s: %v", f.Kind, f.Node, err)
		return
	}
	h.logf("%s disk: %s", f.Node, desc)
}

// RestartFromDisk revives a crashed node from its durable store: the
// on-disk image is recovered (tolerating injected corruption by falling
// back to the last good snapshot), and the node resumes as a fenced
// primary if the directory still names it, or rejoins the recorded
// successor as a backup after replaying its local tail — the disk-fast
// rejoin path, where anti-entropy covers only the downtime gap.
type RestartFromDisk struct {
	// Node names the node to revive.
	Node string
}

// String implements Fault.
func (f RestartFromDisk) String() string { return fmt.Sprintf("restart %s from disk", f.Node) }

func (f RestartFromDisk) apply(h *Harness) { h.restartFromDisk(f.Node) }

// StopWriters halts the automatic client workload (so a scenario can
// control exactly who writes last).
type StopWriters struct{}

// String implements Fault.
func (StopWriters) String() string { return "stop client writers" }

func (StopWriters) apply(h *Harness) { h.stopWriters() }
