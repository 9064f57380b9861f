package chaos

import (
	"bytes"
	"fmt"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/shard"
	"rtpb/internal/temporal"
)

// ShardScenario is a deterministic fault-injection run against a
// sharded cluster (internal/shard): K primary-backup groups on one
// lossy fabric, one group's primary killed mid-run. It checks the
// blast-radius property the sharding layer promises — a failover in one
// group is invisible to every other group's temporal accounting — plus
// the capacity claim that motivates sharding in the first place: the
// run opens with a single-pair probe that provably rejects the object
// set the sharded cluster then admits in full.
type ShardScenario struct {
	// Name and Description identify the scenario in listings.
	Name        string
	Description string
	// Seed drives the fabric's loss/jitter draws; defaults to 1.
	Seed int64
}

func (s *ShardScenario) normalize() {
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// The sharded scenario's shape: K shards, the fabric-wide datagram loss
// probability, the fault-and-workload phase and its post-workload
// drain, the instant shard 0's primary dies, and the placer's reserve,
// tuned so shardObjects spreads across all four groups.
const (
	shardCount    = 4
	shardLoss     = 0.1
	shardDuration = 2 * time.Second
	shardSettle   = 400 * time.Millisecond
	shardCrashAt  = 500 * time.Millisecond
	shardHeadroom = 0.55
)

// shardObjects is the sharded scenario's workload: eight identical
// objects sized so a single pair cannot schedule them all.
func shardObjects() []core.ObjectSpec {
	objects := make([]core.ObjectSpec, 8)
	for i := range objects {
		objects[i] = core.ObjectSpec{
			Name:         fmt.Sprintf("obj%d", i),
			Size:         64,
			UpdatePeriod: 5 * time.Millisecond,
			Constraint: temporal.ExternalConstraint{
				DeltaP: 10 * time.Millisecond,
				DeltaB: 20 * time.Millisecond,
			},
		}
	}
	return objects
}

// ShardCatalogue returns the canned sharded-cluster scenarios.
func ShardCatalogue() []ShardScenario {
	return []ShardScenario{
		{
			Name: "shard-primary-crash",
			Description: "kill one of four shard primaries under 10% loss; " +
				"the other shards' bounds never waver and routed writes converge",
		},
	}
}

// RunShard executes a sharded scenario and evaluates its invariants.
// Deterministic like Run: the same scenario and seed reproduce the
// Result — including the event log — byte for byte.
func RunShard(sc ShardScenario) (*Result, error) {
	sc.normalize()
	res := &Result{Scenario: sc.Name, Seed: sc.Seed}
	violationf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		res.Violations = append(res.Violations, msg)
		res.Log = append(res.Log, "VIOLATION: "+msg)
	}
	objects := shardObjects()
	link := netsim.LinkParams{Delay: 2 * time.Millisecond, Jitter: time.Millisecond, LossProb: shardLoss}

	// Phase 1: the single-pair probe. One primary-backup group, no
	// placer reserve, a loss-free fabric — the most favourable terms a
	// pair could ask for — must still reject the object set, or sharding
	// has nothing to prove on it.
	probe, err := shard.NewCluster(shard.Config{Shards: 1, Seed: sc.Seed, Headroom: -1})
	if err != nil {
		return nil, err
	}
	admitted, rejected := 0, false
	for _, spec := range objects {
		if _, d, err := probe.Place(spec); err != nil {
			res.Log = append(res.Log, fmt.Sprintf(
				"probe: single pair rejects %q after %d admits: %s", spec.Name, admitted, d.Reason))
			rejected = true
			break
		}
		admitted++
	}
	probe.Stop()
	res.Log = append(res.Log, fmt.Sprintf(
		"probe: single pair schedules %d of %d objects", admitted, len(objects)))
	if !rejected {
		violationf("single pair admitted the whole set; the scenario's capacity claim is vacuous")
	}

	// Phase 2: the sharded cluster admits the same set in full, spread
	// across the groups, under the lossy fabric.
	c, err := shard.NewCluster(shard.Config{
		Shards:   shardCount,
		Seed:     sc.Seed,
		Link:     link,
		Headroom: shardHeadroom,
	})
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	start := c.Clock().Now()
	shardOf := make(map[string]int, len(objects))
	used := map[int]bool{}
	for _, spec := range objects {
		idx, _, err := c.Place(spec)
		if err != nil {
			violationf("sharded cluster rejected %q: %v", spec.Name, err)
			continue
		}
		shardOf[spec.Name] = idx
		used[idx] = true
	}
	if len(used) < 2 {
		violationf("placement used only %d shard(s)", len(used))
	}

	for _, spec := range objects {
		c.WriteEvery(spec.Name, spec.UpdatePeriod)
	}
	c.Schedule(shardCrashAt, func() { c.CrashPrimary(0) })
	c.RunFor(shardDuration)
	c.StopWriters()
	c.Monitor().FinishAt(c.Clock().Now())
	c.RunFor(shardSettle)
	res.Log = append(res.Log, c.Log()...)
	res.Elapsed = c.Clock().Now().Sub(start)

	// Invariants. The crashed group must have failed over exactly once
	// and fenced the dead primary's epoch; every object — including the
	// crashed group's — must converge through the re-resolved route.
	st := c.Statuses()[0]
	res.Promotions = st.Promotions
	res.FinalEpoch = st.Epoch
	if st.Promotions != 1 {
		violationf("crashed shard saw %d promotions, want exactly 1", st.Promotions)
	}
	if st.Epoch < 2 {
		violationf("crashed shard's serving epoch is %d, want >= 2", st.Epoch)
	}
	for name, idx := range shardOf {
		got, _, ok := c.Read(name)
		want := c.LastWritten(name)
		if !ok || !bytes.Equal(got, want) {
			violationf("%q (shard %d) did not converge: primary holds %q, last write %q",
				name, idx, got, want)
		}
	}
	// The blast-radius property: no surviving group's backup image ever
	// violated its external bound or had its accounting suspended — the
	// crash next door was invisible to them.
	for name, idx := range shardOf {
		if idx == 0 {
			continue
		}
		site := c.BackupSite(idx)
		rep, ok := c.Monitor().ExternalReport(site, name)
		if !ok {
			violationf("no external report for %s/%s", site, name)
			continue
		}
		if !rep.Consistent() {
			violationf("surviving shard %d's %q violated δB at %v (max staleness %v)",
				idx, name, rep.ViolationTime, rep.MaxStaleness)
		}
		if c.Monitor().Suspended(site, name) {
			violationf("surviving shard %d's %q had its bound suspended", idx, name)
		}
	}
	return res, nil
}
