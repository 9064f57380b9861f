package gateway

import (
	"fmt"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/shard"
)

// Backend is the replicated store a gateway fronts. The gateway reads
// health before certificates — a shard whose governor is degraded or
// shedding gets no broadcast fan-in at all.
type Backend interface {
	// Write forwards one client write; done (optional) observes the
	// response time or error. Writes are never shed by the gateway.
	Write(name string, data []byte, done func(time.Duration, error)) error
	// Certificate snapshots one object's bounded-staleness image.
	Certificate(name string) (core.Certificate, bool)
	// Owner maps an object to its shard index (false if unplaced).
	Owner(name string) (int, bool)
	// Shards reports the shard count.
	Shards() int
	// Health reports one shard's governor pressure.
	Health(i int) shard.Health
}

// Placer is the optional admission side of a Backend: gateways forward
// object placements and treat a rejection as a shed signal.
type Placer interface {
	Place(spec core.ObjectSpec) (int, core.Decision, error)
}

// ClusterBackend adapts a sharded cluster to the Backend interface.
type ClusterBackend struct {
	Cluster *shard.Cluster
}

func (b ClusterBackend) Write(name string, data []byte, done func(time.Duration, error)) error {
	return b.Cluster.Write(name, data, done)
}

func (b ClusterBackend) Certificate(name string) (core.Certificate, bool) {
	return b.Cluster.Certificate(name)
}

func (b ClusterBackend) Owner(name string) (int, bool) { return b.Cluster.Route(name) }

func (b ClusterBackend) Shards() int { return b.Cluster.Shards() }

func (b ClusterBackend) Health(i int) shard.Health { return b.Cluster.Health(i) }

func (b ClusterBackend) Place(spec core.ObjectSpec) (int, core.Decision, error) {
	return b.Cluster.Place(spec)
}

// ReplicaBackend adapts a single primary replica — the unsharded
// deployment — as a one-shard backend.
type ReplicaBackend struct {
	Primary *core.Replica
}

func (b ReplicaBackend) Write(name string, data []byte, done func(time.Duration, error)) error {
	b.Primary.ClientWrite(name, data, done)
	return nil
}

func (b ReplicaBackend) Certificate(name string) (core.Certificate, bool) {
	return b.Primary.Certificate(name)
}

func (b ReplicaBackend) Owner(string) (int, bool) { return 0, true }

func (b ReplicaBackend) Shards() int { return 1 }

func (b ReplicaBackend) Health(int) shard.Health {
	if !b.Primary.Running() {
		return shard.Health{Degraded: 1, Shed: 1}
	}
	gs := b.Primary.GovernorStats()
	return shard.Health{Degraded: gs.Degraded, Shed: gs.Shed}
}

func (b ReplicaBackend) Place(spec core.ObjectSpec) (int, core.Decision, error) {
	d := b.Primary.Register(spec)
	if !d.Accepted {
		return -1, d, fmt.Errorf("gateway: admission rejected: %s", d.Reason)
	}
	return 0, d, nil
}
