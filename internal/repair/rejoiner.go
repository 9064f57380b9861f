// Package repair implements the rejoin protocol of a restarted replica
// (Rejoiner): it waits in the failover directory — the paper's name
// file — for a successor primary, starts a backup pointed at it, and
// lets the chunked anti-entropy exchange in internal/core drive
// the replica to parity.
package repair

import (
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/xkernel"
)

// RejoinerConfig parameterizes a restarted replica's rejoin protocol.
type RejoinerConfig struct {
	// Clock schedules the rejoin loop.
	Clock clock.Clock
	// Service is the replicated service's directory entry.
	Service string
	// Directory is consulted for the current primary and epoch.
	Directory *failover.NameService
	// Self is this replica's own replication address. If the directory
	// still records Self as the primary, there is no successor to rejoin
	// and the loop keeps polling — a fenced old primary must never
	// resume service on its own authority.
	Self xkernel.Addr
	// Start constructs and wires the backup replica once the primary is
	// known: the caller opens the protocol stack, points the backup's
	// Peer at primary, and attaches its observers. epoch is the
	// directory-recorded epoch, which the backup adopts from the
	// JoinAccept.
	Start func(primary xkernel.Addr, epoch uint32) (*core.Replica, error)
	// Restore, when set, runs right after Start constructs the backup
	// and before the first JoinRequest: the disk half of disk-fast
	// rejoin. The hook replays the replica's local durable tail
	// (typically core.Replica.RestoreDurable over internal/durable's
	// Recover) into the fresh table, so the join digest advertises the
	// recovered state and the chunked anti-entropy streams only the gap
	// accumulated while the node was down — catch-up cost proportional
	// to downtime, not state size. It returns how many object values
	// were seeded from disk.
	Restore func(b *core.Replica) (int, error)
	// Interval is the poll/retry period; defaults to 250ms.
	Interval time.Duration
	// OnJoined, when set, fires once when the join exchange completes.
	OnJoined func(b *core.Replica)
}

// RejoinerStatus is a snapshot of the rejoin protocol's progress.
type RejoinerStatus struct {
	// Lookups counts directory polls.
	Lookups int
	// Primary is the successor being rejoined (empty until discovered).
	Primary xkernel.Addr
	// Joined reports completion.
	Joined bool
	// RestoredObjects is how many object values the Restore hook seeded
	// from the local durable tail before the join; Source names where
	// the replica's image came from: "disk+gap" when a disk restore
	// preceded the anti-entropy exchange, "network" otherwise.
	RestoredObjects int
	Source          string
}

// Rejoiner drives a restarted replica — including a fenced old primary —
// back into the cluster: poll the directory until a successor is
// recorded, start a backup pointed at it (the demotion), and retry
// JoinRequests until the chunked anti-entropy exchange completes. Every
// message past the first JoinRequest is retried by the core protocol
// itself; the rejoiner only has to survive the window where nothing is
// established yet.
type Rejoiner struct {
	cfg  RejoinerConfig
	task *clock.Periodic

	b       *core.Replica
	primary xkernel.Addr
	status  RejoinerStatus
	done    bool
}

// NewRejoiner validates the config.
func NewRejoiner(cfg RejoinerConfig) (*Rejoiner, error) {
	if cfg.Clock == nil || cfg.Directory == nil || cfg.Start == nil {
		return nil, fmt.Errorf("repair: rejoiner needs a clock, a directory and a start hook")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	return &Rejoiner{cfg: cfg}, nil
}

// Start begins the rejoin loop; the first poll runs immediately.
func (r *Rejoiner) Start() {
	if r.task != nil {
		return
	}
	r.task = clock.NewPeriodic(r.cfg.Clock, 0, r.cfg.Interval, r.tick)
}

// Stop halts the loop; a backup already started keeps running.
func (r *Rejoiner) Stop() {
	if r.task != nil {
		r.task.Stop()
		r.task = nil
	}
}

// Status reports the loop's progress.
func (r *Rejoiner) Status() RejoinerStatus { return r.status }

func (r *Rejoiner) tick() {
	if r.done {
		r.Stop()
		return
	}
	if r.b == nil {
		addr, epoch, ok := r.cfg.Directory.Lookup(r.cfg.Service)
		r.status.Lookups++
		if !ok || addr == r.cfg.Self {
			return // no successor recorded yet; keep polling
		}
		b, err := r.cfg.Start(addr, epoch)
		if err != nil || b == nil {
			return
		}
		r.b = b
		if r.cfg.Restore != nil {
			// Disk-tail replay before the first JoinRequest: whatever
			// the local log preserved never crosses the network again.
			if n, err := r.cfg.Restore(b); err == nil {
				r.status.RestoredObjects = n
			}
		}
		r.primary = addr
		r.status.Primary = addr
		r.status.Source = "network"
		if r.status.RestoredObjects > 0 {
			r.status.Source = "disk+gap"
		}
	}
	if r.b.Joined() {
		r.finish()
		return
	}
	if !r.b.Joining() {
		// The initial JoinRequest (or the whole exchange) was lost; ask
		// again. Once a JoinAccept lands, the digest/chunk retries inside
		// the core protocol take over.
		r.b.Join()
	}
}

func (r *Rejoiner) finish() {
	r.done = true
	r.status.Joined = true
	if r.cfg.OnJoined != nil {
		r.cfg.OnJoined(r.b)
	}
	r.Stop()
}
