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

// ObserverBackend fronts a write target with a read-only observer tier:
// writes and placements forward to the inner backend (the primary or
// cluster), while certificate reads are served by the least-stale
// observer that can still prove its bound — falling back to the inner
// backend when none can (attach-time catch-up, a partitioned chain, or
// unconverged clock sync). The gateway's broadcast tick is the hot read
// path, so this is where an observer tier turns into read scaling.
type ObserverBackend struct {
	// Inner is the authoritative backend: all writes, placements,
	// routing and health go through it, and it is the read fallback.
	Inner Backend
	// Observers is the read tier, any chain arrangement.
	Observers []*core.Replica
}

func (b ObserverBackend) Write(name string, data []byte, done func(time.Duration, error)) error {
	return b.Inner.Write(name, data, done)
}

func (b ObserverBackend) Certificate(name string) (core.Certificate, bool) {
	var best core.Certificate
	found := false
	for _, obs := range b.Observers {
		if obs == nil || !obs.Running() {
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
	if found {
		return best, true
	}
	return b.Inner.Certificate(name)
}

func (b ObserverBackend) Owner(name string) (int, bool) { return b.Inner.Owner(name) }

func (b ObserverBackend) Shards() int { return b.Inner.Shards() }

func (b ObserverBackend) Health(i int) shard.Health { return b.Inner.Health(i) }

func (b ObserverBackend) Place(spec core.ObjectSpec) (int, core.Decision, error) {
	if p, ok := b.Inner.(Placer); ok {
		return p.Place(spec)
	}
	return -1, core.Decision{Reason: "backend does not place"},
		fmt.Errorf("gateway: inner backend %T does not place", b.Inner)
}
