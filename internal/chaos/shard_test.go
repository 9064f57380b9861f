package chaos

import (
	"strings"
	"testing"
)

// shardPrimaryCrash is the shard catalogue's primary-crash scenario.
func shardPrimaryCrash(t *testing.T) ShardScenario {
	t.Helper()
	for _, sc := range ShardCatalogue() {
		if sc.Name == "shard-primary-crash" {
			return sc
		}
	}
	t.Fatal("scenario missing from catalogue")
	return ShardScenario{}
}

// TestShardPrimaryCrash runs the sharded-cluster scenario and requires
// a clean pass: the single-pair probe rejects the set, the four-shard
// cluster admits it, the crashed group fails over, and no surviving
// group's bound wavers.
func TestShardPrimaryCrash(t *testing.T) {
	res, err := RunShard(shardPrimaryCrash(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("violations:\n  %s\nlog:\n  %s",
			strings.Join(res.Violations, "\n  "), strings.Join(res.Log, "\n  "))
	}
	if res.Promotions != 1 || res.FinalEpoch < 2 {
		t.Fatalf("promotions=%d epoch=%d", res.Promotions, res.FinalEpoch)
	}
	// The admission log must show the single-pair rejection that makes
	// the capacity claim non-vacuous.
	found := false
	for _, line := range res.Log {
		if strings.Contains(line, "single pair rejects") {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("log does not record the single-pair rejection")
	}
}

// TestShardScenarioReplaysByteIdentical runs the scenario twice from
// its committed seed and requires identical logs.
func TestShardScenarioReplaysByteIdentical(t *testing.T) {
	sc := shardPrimaryCrash(t)
	a, err := RunShard(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShard(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Log) != len(b.Log) {
		t.Fatalf("log lengths differ: %d vs %d", len(a.Log), len(b.Log))
	}
	for i := range a.Log {
		if a.Log[i] != b.Log[i] {
			t.Fatalf("log line %d differs:\n%s\n%s", i, a.Log[i], b.Log[i])
		}
	}
	if a.Elapsed != b.Elapsed || a.Promotions != b.Promotions || a.FinalEpoch != b.FinalEpoch {
		t.Fatalf("results differ: %+v vs %+v", a, b)
	}
}
