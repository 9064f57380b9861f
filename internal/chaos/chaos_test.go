package chaos

import (
	"cmp"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/temporal"
)

var (
	seedFlag = flag.Int64("seed", 0, "override every scenario's seed (0 keeps catalogue defaults)")
	update   = flag.Bool("update", false, "rewrite testdata/replay.sha256 from this build's event logs")
	quick    = flag.Bool("quick", false, "skip scenarios marked Full even outside -short")
	verbose  = flag.Bool("chaos.log", false, "print every scenario's event log")
)

// runScenario executes one catalogue scenario, applying the -seed
// override, and fails the test on any violation with the full event log
// and the replay seed.
func runScenario(t *testing.T, sc Scenario) *Result {
	t.Helper()
	if *seedFlag != 0 {
		sc.Seed = *seedFlag
	}
	res, err := Run(sc)
	if err != nil {
		t.Fatalf("scenario %q: %v", sc.Name, err)
	}
	if *verbose {
		t.Logf("event log:\n%s", strings.Join(res.Log, "\n"))
	}
	if res.Failed() {
		t.Errorf("scenario %q seed %d: %d violation(s):\n  %s\nreplay: go test -run Chaos ./internal/chaos -seed=%d\nevent log:\n%s",
			res.Scenario, res.Seed, len(res.Violations),
			strings.Join(res.Violations, "\n  "), res.Seed,
			strings.Join(res.Log, "\n"))
	}
	return res
}

// TestChaosCatalogue runs every canned scenario. Scenarios marked Full
// are skipped under -short or -quick; the nightly CI job runs them all.
func TestChaosCatalogue(t *testing.T) {
	for _, sc := range Catalogue() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Full && (testing.Short() || *quick) {
				t.Skipf("scenario %q is full-mode only (drop -short/-quick to run)", sc.Name)
			}
			runScenario(t, sc)
		})
	}
}

// replayDigests pins each determinism scenario's event log, as
// "<sha256>  <scenario>" lines, at the catalogue seeds.
const replayDigests = "testdata/replay.sha256"

// TestChaosDeterminism replays every catalogue, shard and gateway
// scenario but the endurance soak twice and requires byte-identical
// event logs: the whole harness —
// including the degradation ladder and the CPU model — must be a pure
// function of (scenario, seed). Each log's digest must also equal the
// one recorded in testdata/replay.sha256, so a change that moves the
// schedule fails here even though it replays itself faithfully; rerun
// with -update only when the schedule is meant to move. -seed skips the
// recorded check.
func TestChaosDeterminism(t *testing.T) {
	want := map[string]string{}
	if data, err := os.ReadFile(replayDigests); err == nil {
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if sum, name, ok := strings.Cut(line, "  "); ok {
				want[name] = sum
			}
		}
	} else if !*update {
		t.Fatal(err)
	}
	// Each run applies -seed over the scenario's committed seed.
	type replay struct {
		name string
		run  func() (*Result, error)
	}
	var replays []replay
	for _, sc := range Catalogue() {
		if sc.Name != "endurance-soak" { // the nightly job's soak
			replays = append(replays, replay{sc.Name, func() (*Result, error) {
				sc.Seed = cmp.Or(*seedFlag, sc.Seed)
				return Run(sc)
			}})
		}
	}
	for _, sc := range ShardCatalogue() {
		replays = append(replays, replay{sc.Name, func() (*Result, error) {
			sc.Seed = cmp.Or(*seedFlag, sc.Seed)
			return RunShard(sc)
		}})
	}
	for _, sc := range GatewayCatalogue() {
		replays = append(replays, replay{sc.Name, func() (*Result, error) {
			sc.Seed = cmp.Or(*seedFlag, sc.Seed)
			return RunGateway(sc)
		}})
	}
	var got []string
	for _, r := range replays {
		name, run := r.name, r.run
		first, err := run()
		if err != nil {
			t.Fatalf("first run: %v", err)
		}
		second, err := run()
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
		a, b := strings.Join(first.Log, "\n"), strings.Join(second.Log, "\n")
		if a != b {
			t.Errorf("scenario %q seed %d: two runs diverged\n--- first ---\n%s\n--- second ---\n%s",
				name, first.Seed, a, b)
		}
		sum := fmt.Sprintf("%x", sha256.Sum256([]byte(a)))
		got = append(got, sum+"  "+name)
		if *seedFlag == 0 && !*update && want[name] != sum {
			t.Errorf("scenario %q seed %d: event log digest %s, recorded %s: the schedule moved\nevent log:\n%s",
				name, first.Seed, sum, want[name], a)
		}
	}
	if *update && *seedFlag == 0 {
		if err := os.WriteFile(replayDigests, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosSeedChangesSchedule is the other half of the replay contract:
// a different seed must actually change the fabric's draws (otherwise
// -seed replays would be meaningless).
func TestChaosSeedChangesSchedule(t *testing.T) {
	sc, _ := Find("loss-burst")
	sc.Seed = 1
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 2
	second, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(first.Log, "\n") == strings.Join(second.Log, "\n") {
		t.Error("seeds 1 and 2 produced identical logs; the seed is not reaching the fabric")
	}
}

// TestChaosCatchesFencingRegression demonstrates the harness catches a
// seeded protocol regression: the split-brain scenario re-run with epoch
// fencing disabled (core's ablation knob) must produce a split-brain
// violation — the zombie primary's fenced-epoch writes leak into
// replicated state — where the fenced run stays clean.
func TestChaosCatchesFencingRegression(t *testing.T) {
	sc, ok := Find("split-brain-fencing")
	if !ok {
		t.Fatal("split-brain-fencing missing from catalogue")
	}
	if *seedFlag != 0 {
		sc.Seed = *seedFlag
	}
	sc.DisableFencing = true
	res, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatalf("fencing disabled but no invariant fired; the harness is blind to split-brain\nevent log:\n%s",
			strings.Join(res.Log, "\n"))
	}
	for _, v := range res.Violations {
		if strings.HasPrefix(v, "split-brain:") {
			return
		}
	}
	t.Errorf("fencing disabled: violations fired but none is the split-brain check:\n  %s",
		strings.Join(res.Violations, "\n  "))
}

// TestChaosClockStepAblationFalseFailover pins the hazard the hardened
// detector exists for: the identical outage-plus-step scenario re-run
// with the WallClockElapsed ablation must manufacture exactly one false
// failover (the control arm's own invariants assert the promotion and
// epoch bump). If this starts failing, the catalogue's
// clock-step-false-failover pass no longer demonstrates anything.
func TestChaosClockStepAblationFalseFailover(t *testing.T) {
	res := runScenario(t, ClockStepScenario(true))
	if res.Promotions != 1 {
		t.Fatalf("ablation arm promoted %d times, want exactly 1 false failover\nevent log:\n%s",
			res.Promotions, strings.Join(res.Log, "\n"))
	}
}

// TestFindUnknown pins Find's miss behavior.
func TestFindUnknown(t *testing.T) {
	if _, ok := Find("no-such-scenario"); ok {
		t.Error("Find returned ok for an unknown scenario")
	}
}

// TestNewHarnessReleasesDurableRootOnError pins that a scenario the
// harness cannot build leaves no durable directory behind: the object
// admission rejects fails Run after every WAL is already open.
func TestNewHarnessReleasesDurableRootOnError(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	sc, ok := Find("power-cycle-recover")
	if !ok || !sc.Durable {
		t.Fatal("power-cycle-recover missing or not durable")
	}
	sc.Objects = append(sc.Objects, core.ObjectSpec{Name: "impossible", Size: 64,
		UpdatePeriod: 10 * time.Millisecond,
		Constraint:   temporal.ExternalConstraint{DeltaP: 10 * time.Millisecond, DeltaB: 11 * time.Millisecond}})
	if _, err := Run(sc); err == nil || !strings.Contains(err.Error(), "impossible") {
		t.Fatalf("Run error = %v, want the rejection of %q", err, "impossible")
	}
	left, err := filepath.Glob(filepath.Join(os.TempDir(), "rtpb-chaos-durable-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Fatalf("durable root leaked: %v", left)
	}
}

// TestRestartOnLiveObserverIsNoOp pins that Restart, Rejoin and
// RestartFromDisk aimed at a running observer node leave it alone: the
// node already hosts a replica on its port, so each is logged as a
// no-op instead of building a second replica there.
func TestRestartOnLiveObserverIsNoOp(t *testing.T) {
	sc, ok := Find("observer-chain-partition")
	if !ok {
		t.Fatal("observer-chain-partition missing from catalogue")
	}
	sc.Events = append(sc.Events,
		FaultEvent{At: 1500 * time.Millisecond, Fault: Restart{Node: ObserverANode}},
		FaultEvent{At: 1600 * time.Millisecond, Fault: Rejoin{Node: ObserverANode}},
		FaultEvent{At: 1700 * time.Millisecond, Fault: RestartFromDisk{Node: ObserverANode}})
	res := runScenario(t, sc)
	log := strings.Join(res.Log, "\n")
	for _, want := range []string{"restart observer-a: already up, no-op",
		"rejoin observer-a: already up, no-op", "restart-from-disk observer-a: already up, no-op"} {
		if !strings.Contains(log, want) {
			t.Errorf("event log lacks %q", want)
		}
	}
}
