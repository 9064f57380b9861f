package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/temporal"
)

// fakeTarget is an in-memory bin with additive utilization: a spec
// costs demand and fits while util+demand stays at or below cap.
type fakeTarget struct {
	util, cap, demand float64
}

func (f *fakeTarget) Utilization() float64 { return f.util }
func (f *fakeTarget) UtilizationWith(core.ObjectSpec) (float64, bool) {
	return f.util + f.demand, true
}
func (f *fakeTarget) Admit(spec core.ObjectSpec) core.Decision {
	if f.util+f.demand > f.cap {
		return core.Decision{Reason: "fake bin full"}
	}
	f.util += f.demand
	return core.Decision{Accepted: true}
}

func spec(name string) core.ObjectSpec {
	return core.ObjectSpec{
		Name:         name,
		Size:         32,
		UpdatePeriod: 20 * time.Millisecond,
		Constraint:   temporal.ExternalConstraint{DeltaP: 20 * time.Millisecond, DeltaB: 120 * time.Millisecond},
	}
}

// TestPlacePrefersFullestFit checks the decreasing-utilization order:
// the fullest bin that still fits wins.
func TestPlacePrefersFullestFit(t *testing.T) {
	targets := []Target{
		&fakeTarget{util: 0.2, cap: 1, demand: 0.2},
		&fakeTarget{util: 0.5, cap: 1, demand: 0.2},
		&fakeTarget{util: 0.1, cap: 1, demand: 0.2},
	}
	pl := &Placer{}
	idx, d, err := pl.Place(spec("x"), targets)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 || !d.Accepted {
		t.Fatalf("placed on %d, want the fullest bin 1", idx)
	}
}

// TestPlaceHeadroomSkipsNearFullShards checks the reserve: a bin whose
// post-admission estimate crosses 1−Headroom is never offered the spec,
// even though its own admission would accept.
func TestPlaceHeadroomSkipsNearFullShards(t *testing.T) {
	targets := []Target{
		&fakeTarget{util: 0.85, cap: 1, demand: 0.1},
		&fakeTarget{util: 0.3, cap: 1, demand: 0.1},
	}
	pl := &Placer{Headroom: 0.1}
	idx, _, err := pl.Place(spec("x"), targets)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		// 0.85+0.1 = 0.95 > 0.9: shard 0 is filtered, the spec lands on 1.
		t.Fatalf("placed on %d despite headroom filter", idx)
	}
}

func TestPlaceHeadroomFilter(t *testing.T) {
	targets := []Target{
		&fakeTarget{util: 0.85, cap: 1, demand: 0.1},
		&fakeTarget{util: 0.88, cap: 1, demand: 0.1},
	}
	pl := &Placer{Headroom: 0.1}
	if idx, _, err := pl.Place(spec("x"), targets); err == nil {
		t.Fatalf("placed on %d, want ErrClusterFull from headroom filter", idx)
	} else if !errors.Is(err, ErrClusterFull) {
		t.Fatalf("error is not ErrClusterFull: %v", err)
	}
}

// TestPlaceClusterFull checks a real admission rejection surfaces the
// last decision and wraps ErrClusterFull.
func TestPlaceClusterFull(t *testing.T) {
	targets := []Target{
		&fakeTarget{util: 0.9, cap: 0.95, demand: 0.2},
		&fakeTarget{util: 0.8, cap: 0.95, demand: 0.2},
	}
	pl := &Placer{}
	idx, d, err := pl.Place(spec("x"), targets)
	if !errors.Is(err, ErrClusterFull) {
		t.Fatalf("want ErrClusterFull, got %v", err)
	}
	if idx != -1 || d.Accepted {
		t.Fatalf("rejection returned index %d, decision %+v", idx, d)
	}
	if d.Reason != "fake bin full" {
		t.Fatalf("decision reason %q not propagated", d.Reason)
	}
}

// TestRouter exercises the routing table.
func TestRouter(t *testing.T) {
	r := NewRouter()
	r.Assign("a", 0)
	r.Assign("b", 1)
	r.Assign("c", 1)
	if i, ok := r.Lookup("b"); !ok || i != 1 {
		t.Fatalf("Lookup(b) = %d, %v", i, ok)
	}
	if _, ok := r.Lookup("d"); ok {
		t.Fatal("unassigned route resolves")
	}
	r.Assign("a", 1) // migration rebinds
	if i, _ := r.Lookup("a"); i != 1 {
		t.Fatal("rebind lost")
	}
	if len(r.byObject) != 3 {
		t.Fatalf("%d routes, want 3", len(r.byObject))
	}
}

// TestPlacementSequenceKeepsShardsFeasible is the satellite property
// test: after any accepted sequence of placements, every shard's
// resident task set still passes its schedulability test.
func TestPlacementSequenceKeepsShardsFeasible(t *testing.T) {
	periods := []time.Duration{5, 10, 20, 40}
	deltaPs := []time.Duration{10, 20, 50}
	windows := []time.Duration{10, 30, 100, 200}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c, err := NewCluster(Config{Shards: 3, Seed: seed, Headroom: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			for op := 0; op < 120; op++ {
				dp := deltaPs[rng.Intn(len(deltaPs))] * time.Millisecond
				s := core.ObjectSpec{
					Name:         fmt.Sprintf("p%d", op),
					Size:         1 + rng.Intn(512),
					UpdatePeriod: periods[rng.Intn(len(periods))] * time.Millisecond,
					Constraint: temporal.ExternalConstraint{
						DeltaP: dp,
						DeltaB: dp + windows[rng.Intn(len(windows))]*time.Millisecond,
					},
				}
				if _, _, err := c.Place(s); err != nil && !errors.Is(err, ErrClusterFull) {
					t.Fatalf("op %d: place %q: %v", op, s.Name, err)
				}
				for i := 0; i < c.Shards(); i++ {
					if !c.Shard(i).Primary().Feasible() {
						t.Fatalf("op %d: shard %d resident set became infeasible", op, i)
					}
				}
			}
		})
	}
}
