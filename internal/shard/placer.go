// Package shard runs K independent RTPB primary-backup groups behind one
// client-facing surface: a Placer bin-packs registrations across the
// groups using the paper's own admission tests as the fit function, a
// Router maintains the object→shard map and forwards writes and reads to
// the owning group's current primary (re-resolving after a per-shard
// failover), and Migrate moves an object between groups over the chunked
// anti-entropy transfer. The paper's guarantees are per-group: every
// shard is exactly the two-replica protocol of Sections 3–4, so the
// cluster's capacity scales with K while each object's temporal
// constraints are enforced by the shard that admitted it.
package shard

import (
	"errors"
	"fmt"
	"sort"

	"rtpb/internal/core"
)

// ErrClusterFull reports that no shard could schedule an object: every
// group either failed the headroom reserve or rejected the registration
// outright.
var ErrClusterFull = errors.New("shard: no shard can schedule the object")

// Target is one shard as the placer sees it: an admission surface with a
// utilization estimate. *Shard implements it; the placement property
// tests drive the placer through lightweight in-memory targets too.
type Target interface {
	// Utilization is the resident task set's planned CPU utilization.
	Utilization() float64
	// UtilizationWith estimates the utilization were spec admitted; ok is
	// false when the spec cannot yield a positive update period.
	UtilizationWith(spec core.ObjectSpec) (float64, bool)
	// Admit runs the real admission pipeline, admitting on acceptance.
	Admit(spec core.ObjectSpec) core.Decision
}

// Placer bin-packs objects across shards. For one incoming spec the
// shards are tried in decreasing-utilization order (ties broken by
// index) and the first fit wins: packing the fullest feasible shard
// keeps the lightly loaded ones free for objects with tight constraints,
// the classic decreasing-order discipline applied to the bins. The fit
// function is the shard's own admission test — a shard fits iff the
// registration is accepted — pre-filtered by the headroom reserve.
type Placer struct {
	// Headroom is the per-shard CPU utilization reserve in [0, 1): a spec
	// is only offered to a shard when the estimated post-admission
	// utilization stays at or below 1−Headroom. The reserve is what keeps
	// failover re-admission and migration feasible — a shard packed to
	// the admission boundary has no room to take anything in. Zero means
	// no reserve.
	Headroom float64
}

// DefaultHeadroom is the per-shard reserve used when none is configured.
const DefaultHeadroom = 0.10

// Place picks a shard for one spec and admits it there. It returns the
// chosen target's index and the accepting decision; on failure the index
// is -1, the decision is the last real rejection (zero if no shard got
// past the headroom filter), and the error wraps ErrClusterFull.
func (pl *Placer) Place(spec core.ObjectSpec, targets []Target) (int, core.Decision, error) {
	if len(targets) == 0 {
		return -1, core.Decision{}, fmt.Errorf("%w: no shards", ErrClusterFull)
	}
	order := make([]int, len(targets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return targets[order[a]].Utilization() > targets[order[b]].Utilization()
	})
	limit := 1 - pl.Headroom
	var last core.Decision
	reason := "over headroom reserve on every shard"
	for _, i := range order {
		t := targets[i]
		est, ok := t.UtilizationWith(spec)
		if !ok || est > limit {
			continue
		}
		d := t.Admit(spec)
		if d.Accepted {
			return i, d, nil
		}
		last = d
		reason = d.Reason
	}
	return -1, last, fmt.Errorf("%w: %s", ErrClusterFull, reason)
}
