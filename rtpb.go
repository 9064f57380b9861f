// Package rtpb is a Go implementation of Real-Time Primary-Backup (RTPB)
// replication with temporal consistency guarantees (Zou & Jahanian,
// ICDCS 1998).
//
// RTPB is a passive (primary-backup) replication scheme for real-time
// systems. Clients register objects with declared update periods and
// temporal-consistency constraints; the primary admits objects only when
// the constraints are achievable (Section 4.2 of the paper), services
// client writes, and schedules decoupled update transmissions to the
// backup so that both replicas' images stay temporally consistent with
// the external world (Theorems 1-5) and with each other (Theorem 6). A
// heartbeat failure detector drives failover: on primary failure the
// backup promotes itself, updates the name service, and recruits a
// replacement.
//
// The package exposes three layers:
//
//   - The replica API (NewReplica and the NewPrimary/NewBackup role
//     shorthands, Config, ObjectSpec), which runs over any Transport —
//     the deterministic simulated network for tests and experiments, or
//     real UDP sockets via cmd/rtpbd. A replica is one state machine
//     that flips roles in place: failover.Promote turns a backup into
//     the serving primary without copying its object table.
//   - The analysis API (temporal conditions, scheduling feasibility and
//     phase-variance bounds) re-exported from internal/temporal and
//     internal/sched.
//   - SimCluster, a turnkey simulated two-replica deployment in virtual
//     time, used by the examples and the benchmark harness that
//     regenerates the paper's figures.
package rtpb

import (
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/gateway"
	"rtpb/internal/netsim"
	"rtpb/internal/sched"
	"rtpb/internal/shard"
	"rtpb/internal/temporal"
	"rtpb/internal/xkernel"
)

// Core replication types.
type (
	// Config configures a Primary or Backup replica.
	Config = core.Config
	// ObjectSpec declares an object at registration time.
	ObjectSpec = core.ObjectSpec
	// Decision is an admission-control outcome.
	Decision = core.Decision
	// Replica is the role-based RTPB replica state machine: one object
	// table and protocol engine that serves as primary or backup and
	// is promoted in place (Promote) without copying state.
	Replica = core.Replica
	// Role is a replica's current role.
	Role = core.Role
	// Primary is a Replica serving the primary role (alias retained for
	// the paper's vocabulary).
	Primary = core.Replica
	// Backup is a Replica serving the backup role (alias retained for
	// the paper's vocabulary).
	Backup = core.Replica
	// CostModel maps protocol operations to CPU time.
	CostModel = core.CostModel
	// SchedulingMode selects normal or compressed update scheduling.
	SchedulingMode = core.SchedulingMode
	// SchedTest selects the admission-time schedulability test.
	SchedTest = core.SchedTest
)

// Temporal-consistency model types.
type (
	// ExternalConstraint bounds an object image's staleness relative to
	// the external world at the primary (DeltaP) and backup (DeltaB).
	ExternalConstraint = temporal.ExternalConstraint
	// InterObjectConstraint bounds the relative staleness of two
	// objects.
	InterObjectConstraint = temporal.InterObjectConstraint
	// ConsistencyMonitor verifies temporal-consistency guarantees
	// against observed update streams.
	ConsistencyMonitor = temporal.Monitor
)

// Failover types.
type (
	// Detector is the ping/ack heartbeat failure detector.
	Detector = failover.Detector
	// DetectorConfig tunes the failure detector.
	DetectorConfig = failover.DetectorConfig
	// NameService records which replica currently serves as primary:
	// the paper's "name file", held in memory.
	NameService = failover.NameService
	// PromoteOptions parameterizes a backup-to-primary promotion.
	PromoteOptions = failover.PromoteOptions
)

// Sharding types (beyond the paper): many primary-backup groups behind
// one placement-and-routing surface.
type (
	// ShardedCluster runs K independent primary-backup groups with
	// admission-aware placement, object routing, and migration.
	ShardedCluster = shard.Cluster
	// ShardedClusterConfig configures a simulated sharded cluster.
	ShardedClusterConfig = shard.Config
	// ShardStatus is one group's externally visible state.
	ShardStatus = shard.Status
	// Placer bin-packs objects across shards using each shard's own
	// admission test as the fit function.
	Placer = shard.Placer
	// ShardRouter is the object→shard routing table.
	ShardRouter = shard.Router
)

// ErrClusterFull reports that no shard could schedule an object.
var ErrClusterFull = shard.ErrClusterFull

// Gateway front-tier types (beyond the paper): the client-facing session
// and group layer that broadcasts staleness certificates at scale.
type (
	// Gateway terminates client sessions, fans out per-group staleness
	// certificates each broadcast tick, and sheds sessions when the
	// backend's admission control or overload governor pushes back.
	Gateway = gateway.Gateway
	// GatewayConfig assembles a Gateway.
	GatewayConfig = gateway.Config
	// GatewayStats is the gateway's cumulative activity.
	GatewayStats = gateway.Stats
	// GatewaySession is one admitted client session.
	GatewaySession = gateway.Session
	// GatewayGroup is a named subscription set bound to objects.
	GatewayGroup = gateway.Group
	// GatewayFrame is one broadcast unit: an object's staleness
	// certificate under a per-object sequence number.
	GatewayFrame = gateway.Frame
	// GatewaySink receives a session's broadcast frames.
	GatewaySink = gateway.Sink
	// GatewayBackend is the replicated store a gateway fronts.
	GatewayBackend = gateway.Backend
	// ReplicaBackend fronts a single primary replica.
	ReplicaBackend = gateway.ReplicaBackend
	// ClusterBackend fronts a sharded cluster.
	ClusterBackend = gateway.ClusterBackend
	// Certificate is a bounded-staleness read: value, version, age, and
	// the mode-effective staleness bound the replica currently honors.
	Certificate = core.Certificate
)

// NewGateway builds and starts a gateway front tier over a backend.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// Infrastructure types.
type (
	// Clock is the time substrate all replicas run on.
	Clock = clock.Clock
	// SimClock is the deterministic virtual-time clock.
	SimClock = clock.SimClock
	// RealClock runs callbacks on a real-time event loop.
	RealClock = clock.RealClock
	// LinkParams describes a simulated link's delay, jitter, and loss.
	LinkParams = netsim.LinkParams
	// Transport is the datagram service a replica's protocol graph
	// rides on.
	Transport = xkernel.Transport
	// PortProtocol is the UDP-like port protocol of the x-kernel stack.
	PortProtocol = xkernel.PortProtocol
	// Addr is a protocol participant address ("host" or "host:port").
	Addr = xkernel.Addr
)

// Scheduling modes.
const (
	// ScheduleNormal sends each object's update every
	// SlackFactor·(δ_i − ℓ).
	ScheduleNormal = core.ScheduleNormal
	// ScheduleCompressed sends as many updates as the CPU allows.
	ScheduleCompressed = core.ScheduleCompressed
)

// Admission-time schedulability tests.
const (
	// SchedTestRMBound is the Liu & Layland utilization bound (default).
	SchedTestRMBound = core.SchedTestRMBound
	// SchedTestRMExact is rate-monotonic response-time analysis.
	SchedTestRMExact = core.SchedTestRMExact
	// SchedTestEDF is the EDF density test.
	SchedTestEDF = core.SchedTestEDF
	// SchedTestDCS is the pinwheel S_r test of Theorem 3.
	SchedTestDCS = core.SchedTestDCS
)

// Replica roles.
const (
	// RolePrimary marks the replica serving client writes.
	RolePrimary = core.RolePrimary
	// RoleBackup marks the replica applying replicated updates.
	RoleBackup = core.RoleBackup
)

// RTPBPort is the well-known port the RTPB protocol listens on.
const RTPBPort = core.RTPBPort

// NewShardedCluster builds and starts a simulated sharded cluster: K
// independent primary-backup groups on one fabric, fronted by the
// admission-aware placer and the object router (see internal/shard).
func NewShardedCluster(cfg ShardedClusterConfig) (*ShardedCluster, error) {
	return shard.NewCluster(cfg)
}

// NewReplica builds a replica starting in the given role.
func NewReplica(cfg Config, role Role) (*Replica, error) { return core.NewReplica(cfg, role) }

// NewPrimary builds a replica starting in the primary role.
func NewPrimary(cfg Config) (*Primary, error) { return core.NewPrimary(cfg) }

// NewBackup builds a replica starting in the backup role.
func NewBackup(cfg Config) (*Backup, error) { return core.NewBackup(cfg) }

// NewSimClock returns a deterministic virtual-time clock.
func NewSimClock() *SimClock { return clock.NewSim() }

// NewRealClock starts a wall-clock event loop; Stop it when done.
func NewRealClock() *RealClock { return clock.NewReal() }

// NewMonitor returns an empty temporal-consistency monitor.
func NewMonitor() *ConsistencyMonitor { return temporal.NewMonitor() }

// NewNameService returns an empty in-memory primary directory.
func NewNameService() *NameService { return failover.NewNameService() }

// NewDetector builds a heartbeat failure detector (see failover.NewDetector).
func NewDetector(clk Clock, cfg DetectorConfig, send func() uint64, onDead func()) (*Detector, error) {
	return failover.NewDetector(clk, cfg, send, onDead)
}

// DefaultDetectorConfig returns the heartbeat configuration used by the
// examples.
func DefaultDetectorConfig() DetectorConfig { return failover.DefaultDetectorConfig() }

// Promote executes the Section 4.4 takeover on a backup that has declared
// the primary dead.
func Promote(b *Backup, opts PromoteOptions) (*Primary, error) { return failover.Promote(b, opts) }

// Recruit points a serving primary at a fresh replacement backup.
func Recruit(p *Primary, backupAddr Addr) error { return failover.Recruit(p, backupAddr) }

// NewStack assembles the paper's protocol graph (Figure 5) — RTPB's port
// protocol over a network driver over the given transport — and returns
// the port protocol a replica Config needs.
func NewStack(tr Transport) (*PortProtocol, error) { return xkernel.NewStack(tr, nil, 0) }

// NewStackMTU assembles the protocol graph with a fragmentation layer
// between the port protocol and the driver (uport → frag → driver), so
// objects larger than the transport MTU replicate transparently. Both
// replicas must use the same stack shape.
func NewStackMTU(tr Transport, clk Clock, mtu int) (*PortProtocol, error) {
	return xkernel.NewStack(tr, clk, mtu)
}

// MaxPrimaryPeriod returns the largest client update period satisfying
// external consistency at the primary (Theorem 1): δ_i^P − v_i.
func MaxPrimaryPeriod(deltaP, phaseVariance time.Duration) time.Duration {
	return temporal.MaxPrimaryPeriod(deltaP, phaseVariance)
}

// MaxBackupPeriod returns the largest backup-update period satisfying
// external consistency at the backup (Theorem 5 simplification, with zero
// phase variance): (δ_i^B − δ_i^P) − ℓ.
func MaxBackupPeriod(c ExternalConstraint, ell time.Duration) time.Duration {
	return temporal.MaxBackupPeriodTheorem5(c, ell)
}

// ZeroPhaseVarianceAchievable reports Theorem 3's condition: the pinwheel
// scheduler S_r achieves zero phase variance for every task if
// Σ e_i/p_i ≤ n(2^{1/n} − 1).
func ZeroPhaseVarianceAchievable(ts sched.TaskSet) bool {
	return sched.ZeroPhaseVarianceAchievable(ts)
}
