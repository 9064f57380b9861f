// Package core implements the paper's contribution: the Real-Time
// Primary-Backup (RTPB) replication protocol. A Primary accepts client
// writes, performs admission control on each object's temporal-consistency
// constraints (Section 4.2), and schedules decoupled update transmissions
// to a Backup (Section 4.3) so that external and inter-object temporal
// consistency hold at both replicas; a Backup applies updates, detects
// gaps, requests retransmissions, and can be promoted on primary failure
// (Section 4.4). Both are written as x-kernel anchor protocols over the
// port protocol, exactly like the paper's stack (Figure 5): RTPB → UDP →
// driver.
package core

import (
	"errors"
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/durable"
	"rtpb/internal/sched"
	"rtpb/internal/temporal"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// SchedulingMode selects how the primary schedules update transmissions.
type SchedulingMode int

const (
	// ScheduleNormal sends each object's update every
	// SlackFactor·(δ_i − ℓ), the paper's default with built-in slack for
	// message loss.
	ScheduleNormal SchedulingMode = iota + 1
	// ScheduleCompressed sends "as many updates to backup as the
	// resources allow" [Mehra et al.], cycling round-robin through the
	// admitted objects on the CPU's spare capacity.
	ScheduleCompressed
	// ScheduleWriteThrough transmits an update to the backup for every
	// client write, abandoning the paper's decoupling of client updates
	// from backup updates. It exists as an ablation baseline: it couples
	// the transmission load to the client write rate, which is exactly
	// what RTPB's decoupled scheduler avoids.
	ScheduleWriteThrough
)

// String returns the mode name.
func (m SchedulingMode) String() string {
	switch m {
	case ScheduleNormal:
		return "normal"
	case ScheduleCompressed:
		return "compressed"
	case ScheduleWriteThrough:
		return "write-through"
	default:
		return fmt.Sprintf("SchedulingMode(%d)", int(m))
	}
}

// RTPBPort is the well-known port the RTPB protocol is enabled on, the
// analogue of the paper's anchor-protocol demux key.
const RTPBPort = wire.Port

// CostModel maps protocol operations to processor time on the replica's
// CPU. The defaults approximate the paper's prototype scale: sub-
// millisecond client operations and update transmissions that grow with
// object size.
type CostModel struct {
	// ClientOp is the CPU cost of servicing one client write, excluding
	// the per-byte copy cost.
	ClientOp time.Duration
	// UpdateSend is the fixed CPU cost of transmitting one update.
	UpdateSend time.Duration
	// PerByte is the additional CPU cost per payload byte for both
	// client writes and update transmissions.
	PerByte time.Duration
}

// DefaultCosts returns the cost model used by the evaluation harness.
func DefaultCosts() CostModel {
	return CostModel{
		ClientOp:   200 * time.Microsecond,
		UpdateSend: 400 * time.Microsecond,
		PerByte:    2 * time.Nanosecond,
	}
}

// clientCost reports the CPU cost of a client write of size bytes.
func (c CostModel) clientCost(size int) time.Duration {
	return c.ClientOp + time.Duration(size)*c.PerByte
}

// sendCost reports the CPU cost of one datagram carrying size bytes of
// updates. The fixed UpdateSend component models per-datagram work
// (syscall, header, scheduling) that a framed slot pays once, so batching
// amortizes it and each further update costs its per-byte copy only — the
// simulator's counterpart of the real stack's fewer-syscalls win. A
// one-update slot costs exactly what the unbatched path did.
func (c CostModel) sendCost(size int) time.Duration {
	return c.UpdateSend + time.Duration(size)*c.PerByte
}

// Config configures a Primary or Backup replica.
type Config struct {
	// Clock drives all timers; required.
	Clock clock.Clock
	// Port is the port protocol the RTPB anchor protocol is enabled on;
	// required.
	Port *xkernel.PortProtocol
	// Peer is the other replica's address ("host:port"). For a primary
	// with multiple backups (the paper's future-work extension), list
	// them all in Peers instead (Peer, when set, is merged in).
	Peer xkernel.Addr
	// Peers are the backup replicas' addresses (primary only). Update
	// transmissions are broadcast to every live peer, and the admission
	// controller charges one transmission cost per peer.
	Peers []xkernel.Addr
	// Ell is ℓ, the upper bound on one-way communication delay between
	// the replicas; required for admission control.
	Ell time.Duration
	// SlackFactor scales the update period below the Theorem 5 maximum:
	// r_i = SlackFactor·(δ_i − ℓ). The paper uses 1/2 "so that the
	// primary can retransmit updates to compensate for message loss".
	// Defaults to 0.5; must be in (0, 1].
	SlackFactor float64
	// Scheduling selects normal or compressed update scheduling;
	// defaults to ScheduleNormal.
	Scheduling SchedulingMode
	// DisableAdmissionControl admits every object regardless of the
	// schedulability tests, reproducing the paper's "without admission
	// control" experiments (Figures 7 and 10).
	DisableAdmissionControl bool
	// Costs is the CPU cost model; zero value means DefaultCosts.
	Costs CostModel
	// SchedTest selects the schedulability test used at admission;
	// defaults to rate-monotonic response-time analysis, matching the
	// paper's use of the rate-monotonic algorithm.
	SchedTest SchedTest
	// DisableGapRecovery stops the backup from requesting retransmission
	// when it detects a sequence gap. It exists as an ablation baseline
	// for the paper's backup-initiated retransmission design (§4.3).
	DisableGapRecovery bool
	// DisableEpochFencing makes the backup apply updates without the
	// epoch checks of Section 4.4: stale-epoch messages are accepted and
	// ordering degrades to last-arrival-wins. It exists as an ablation
	// baseline so the chaos harness can demonstrate the split-brain
	// hazard the fencing prevents; never enable it in a deployment.
	DisableEpochFencing bool
	// SendQueueLimit bounds each peer's pending-update queue under normal
	// scheduling. The queue holds object identifiers, one slot per object
	// (a newer write for a queued object coalesces into its slot: newest
	// state wins, which is correct for state — not operation — transfer);
	// when full, the oldest entry is dropped. Defaults to 64. Set
	// UnboundedSendQueue to restore the seed's unbounded CPU-queue
	// buffering, which the paper-faithful experiment harness uses to
	// reproduce the Figure 7 overload explosion.
	SendQueueLimit int
	// FrameBatch bounds how many pending object updates one transmission
	// slot drains into each peer's framed datagram (wire.Frame). The
	// decoupled transmission window makes coalescing semantically free —
	// only the freshest image per object matters per slot — so batching
	// trades nothing: the slot pays the same total CPU send cost but emits
	// one datagram per peer instead of one per object. Defaults to 16; 1
	// disables batching (every update rides its own datagram, the seed's
	// wire behaviour). Ignored under UnboundedSendQueue, which keeps the
	// legacy per-update CPU queueing for Figure 7/10 fidelity, and by the
	// compressed pump, whose live step frames a whole round.
	FrameBatch int
	// DisableRetransmitThrottle restores the seed's behaviour of sending
	// a RetransmitRequest on every gap-detected arrival (the request
	// storm). It exists as an ablation baseline for the rate-limited
	// single-outstanding-request recovery path.
	DisableRetransmitThrottle bool
	// Governor configures the primary's overload governor; the zero value
	// leaves it disabled.
	Governor GovernorConfig
	// Durable, when set, receives an asynchronous write-ahead record of
	// every spec install, applied value, unregister, and epoch advance,
	// plus a snapshot on every epoch advance and every snapshotEvery
	// applies. The replica never waits on it: appends are enqueue-only
	// (internal/durable's bounded channel), so the paper-critical update
	// path stays free of disk I/O. The replica does not own the Log;
	// whoever opened it closes it after Stop.
	Durable *durable.Log
	// ClockSync enables the Cristian-style clock-offset estimator
	// (internal/clocksync): each heartbeat this replica sends as backup
	// carries a wire.TimeSync probe, the peer echoes it with its own
	// stamps, and the completed exchange yields a per-peer offset
	// estimate with an explicit error bound θ. Both roles always answer
	// inbound probes; this flag only controls originating them.
	ClockSync bool
	// ClockSyncMaxDriftPPM bounds the assumed relative oscillator drift
	// used to age θ between probes; zero means the clocksync package
	// default (200 ppm).
	ClockSyncMaxDriftPPM float64
	// SkewMargin reserves clock-uncertainty headroom in admission
	// control: the schedulability test treats every object's
	// replication window as δ_i − ℓ − SkewMargin, and an object whose
	// whole window is inside the margin is rejected. A deployment that
	// cannot synchronize clocks tighter than θ should admit only what
	// it can still guarantee under that error. Zero (the default)
	// reproduces the paper's single-timebase admission exactly.
	SkewMargin time.Duration
}

// UnboundedSendQueue disables the per-peer send-queue bound.
const UnboundedSendQueue = -1

// Protocol constants: one value each in every deployment.
const (
	// maxRetries bounds every retried exchange toward one peer: a
	// registration forwarded to a backup, a critical write's
	// retransmissions, the JoinAccept of a join exchange, and each chunk
	// of its anti-entropy stream (an exhausted chunk abandons the
	// generation; the joiner's next digest resumes from what landed).
	maxRetries = 5
	// retryCeiling caps every adaptive retransmission backoff delay.
	retryCeiling = time.Second
	// frameBytes soft-bounds the payload one framed datagram carries: a
	// slot stops collecting once the next object would push the frame
	// past it (a single oversized object still goes alone), comfortably
	// under the 64 KiB UDP datagram limit.
	frameBytes      = 48 << 10
	frameEntryBytes = 37 // what framing adds per update; a pump step's round counts it
	// chunkEntries and chunkBytes bound one anti-entropy StateChunk (at
	// least one entry is always sent), keeping its CPU cost and datagram
	// size comparable to regular update traffic so a joiner's catch-up
	// cannot starve live replication.
	chunkEntries = 8
	chunkBytes   = 32 << 10
	// snapshotEvery is how many logged applies trigger a periodic durable
	// snapshot, bounding recovery replay length and log growth.
	snapshotEvery = 256
)

// retryBase is the static reply timeout every retry path starts from
// before the link estimator has RTT samples: 4·ℓ, at least 20 ms.
func (c *Config) retryBase() time.Duration { return max(4*c.Ell, 20*time.Millisecond) }

// ErrAckTimeout is returned to a critical write's callback when the
// backups did not acknowledge within maxRetries retransmissions.
var ErrAckTimeout = errors.New("core: critical write not acknowledged")

// SchedTest selects the admission-time schedulability test.
type SchedTest int

const (
	// SchedTestRMBound uses the Liu & Layland rate-monotonic utilization
	// bound, the test the paper names ("a schedulability test based on
	// the rate-monotonic scheduling algorithm"). It is the default: by
	// capping utilization at n(2^{1/n}−1) it also keeps queueing at the
	// primary low, which is what makes Figure 6 flat.
	SchedTestRMBound SchedTest = iota
	// SchedTestRMExact uses rate-monotonic response-time analysis; it
	// admits up to ~100% utilization at the cost of higher queueing.
	SchedTestRMExact
	// SchedTestEDF uses the EDF density test.
	SchedTestEDF
	// SchedTestDCS uses the pinwheel S_r specialization test (Theorem 3),
	// under which update-task phase variance is zero.
	SchedTestDCS
)

// feasible applies the configured test to the task set.
func (t SchedTest) feasible(ts sched.TaskSet) bool {
	switch t {
	case SchedTestRMExact:
		return sched.FeasibleRMExact(ts)
	case SchedTestEDF:
		return sched.FeasibleEDF(ts)
	case SchedTestDCS:
		return sched.FeasibleDCSExact(ts)
	default:
		return sched.FeasibleRM(ts)
	}
}

// Errors returned by replica construction and registration.
var (
	ErrNoClock       = errors.New("core: config needs a Clock")
	ErrNoPort        = errors.New("core: config needs a Port protocol")
	ErrBadSlack      = errors.New("core: SlackFactor must be in (0, 1]")
	ErrUnknownName   = errors.New("core: unknown object")
	ErrRejected      = errors.New("core: object rejected by admission control")
	ErrStopped       = errors.New("core: replica stopped")
	ErrValueTooLarge = errors.New("core: value exceeds the wire's payload limit")
)

// normalize fills in defaults and checks the admission parameters; the
// clock and port a replica also needs are checked by NewReplica.
func (c *Config) normalize() error {
	if c.SlackFactor == 0 {
		c.SlackFactor = 0.5
	}
	if c.SlackFactor < 0 || c.SlackFactor > 1 {
		return ErrBadSlack
	}
	if c.Scheduling == 0 {
		c.Scheduling = ScheduleNormal
	}
	if c.Costs == (CostModel{}) {
		c.Costs = DefaultCosts()
	}
	if c.Ell < 0 {
		return fmt.Errorf("core: negative ℓ %v", c.Ell)
	}
	if c.SendQueueLimit == 0 {
		c.SendQueueLimit = 64
	}
	if c.FrameBatch == 0 {
		c.FrameBatch = 16
	}
	if c.FrameBatch < 1 {
		c.FrameBatch = 16
	}
	if c.SkewMargin < 0 {
		return fmt.Errorf("core: negative SkewMargin %v", c.SkewMargin)
	}
	c.Governor.normalize()
	if c.Peer != "" {
		merged := make([]xkernel.Addr, 0, len(c.Peers)+1)
		merged = append(merged, c.Peer)
		for _, a := range c.Peers {
			if a != c.Peer {
				merged = append(merged, a)
			}
		}
		c.Peers = merged
	}
	return nil
}

// replicaCount reports how many backups the primary transmits to (at
// least 1 so cost accounting stays meaningful for a primary awaiting its
// first recruit).
func (c *Config) replicaCount() int {
	if len(c.Peers) > 1 {
		return len(c.Peers)
	}
	return 1
}

// ObjectSpec is a client's declaration of an object at registration time
// (Section 4.2): its size, the period the client promises to update it
// with, and its external temporal-consistency constraint.
type ObjectSpec struct {
	// Name identifies the object to clients.
	Name string
	// Size is the reserved size in bytes.
	Size int
	// UpdatePeriod is p_i, the period of the client's update task.
	UpdatePeriod time.Duration
	// Constraint holds δ_i^P and δ_i^B.
	Constraint temporal.ExternalConstraint
	// Critical selects the hybrid active/passive path (the paper's §7
	// future work): every client write to a critical object is
	// synchronously transmitted with an acknowledgement request, and the
	// client's response waits until every live backup has confirmed —
	// active-replication semantics for this object, passive for the
	// rest. Admission charges the extra per-write transmission.
	Critical bool
}

// Validate checks the spec.
func (s ObjectSpec) Validate() error {
	if s.Name == "" {
		return errors.New("core: object needs a name")
	}
	if s.Size < 0 {
		return fmt.Errorf("core: object %q has negative size", s.Name)
	}
	if s.UpdatePeriod <= 0 {
		return fmt.Errorf("core: object %q has non-positive update period", s.Name)
	}
	return s.Constraint.Validate()
}

// wireSpec is spec as the primary replicates it to its backups.
func wireSpec(s ObjectSpec) wire.Spec {
	return wire.Spec{Name: s.Name, Size: uint32(s.Size), Period: s.UpdatePeriod,
		DeltaP: s.Constraint.DeltaP, DeltaB: s.Constraint.DeltaB, Critical: s.Critical}
}

// registration is the Register that replicates spec s of object id.
func registration(epoch, id uint32, s wire.Spec) *wire.Register {
	return &wire.Register{Epoch: epoch, ObjectID: id, Name: s.Name, Size: s.Size,
		Period: s.Period, DeltaP: s.DeltaP, DeltaB: s.DeltaB, Critical: s.Critical}
}

// objectSpec is the spec a replicated wire spec declares.
func objectSpec(s wire.Spec) ObjectSpec {
	return ObjectSpec{Name: s.Name, Size: int(s.Size), UpdatePeriod: s.Period,
		Constraint: temporal.ExternalConstraint{DeltaP: s.DeltaP, DeltaB: s.DeltaB},
		Critical:   s.Critical}
}
