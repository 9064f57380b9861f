package chaos

import (
	"fmt"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/durable"
	"rtpb/internal/failover"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
)

// Catalogue returns the canned chaos scenarios. Every scenario is fully
// deterministic for its seed; the test suite runs each one and asserts
// zero violations, and cmd/rtpbench's "chaos" subcommand runs them
// standalone. Seeds are left at the default (normalize fills 1) so
// `-seed` can override them uniformly.
func Catalogue() []Scenario {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	return []Scenario{
		{
			Name:        "steady-state",
			Description: "no faults: the bounds, convergence, and epoch stability baseline",
			Invariants: []Checker{
				Converged{}, BoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 20},
			},
		},
		{
			Name:        "loss-burst",
			Description: "25% update loss for 500ms; gap recovery keeps the image inside δB",
			Detector:    failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 10},
			Events: []FaultEvent{
				{At: ms(400), Fault: Degrade{A: PrimaryNode, B: BackupNode,
					Link: netsim.LinkParams{Delay: ms(2), Jitter: ms(1), LossProb: 0.25}}},
				{At: ms(900), Fault: Heal{A: PrimaryNode, B: BackupNode}},
			},
			Invariants: []Checker{
				Converged{}, BoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1},
			},
		},
		{
			Name:        "jitter-reorder",
			Description: "25ms jitter burst reorders updates; sequence fencing keeps versions monotone",
			Detector:    failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 12},
			Events: []FaultEvent{
				{At: ms(400), Fault: Degrade{A: PrimaryNode, B: BackupNode,
					Link: netsim.LinkParams{Delay: ms(2), Jitter: ms(25)}}},
				{At: ms(1200), Fault: Heal{A: PrimaryNode, B: BackupNode}},
			},
			Invariants: []Checker{
				Converged{}, BoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 20},
			},
		},
		{
			Name:        "duplication-storm",
			Description: "60% duplication for 1.2s; duplicate suppression keeps state exactly-once",
			Events: []FaultEvent{
				{At: ms(300), Fault: Degrade{A: PrimaryNode, B: BackupNode,
					Link: netsim.LinkParams{Delay: ms(2), Jitter: ms(1), DuplicateProb: 0.6}}},
				{At: ms(1500), Fault: Heal{A: PrimaryNode, B: BackupNode}},
			},
			Invariants: []Checker{
				Converged{}, BoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 20},
			},
		},
		{
			Name:        "primary-crash-failover",
			Description: "primary crashes at 800ms; the backup detects, promotes, and serves as epoch 2",
			Events: []FaultEvent{
				{At: ms(800), Fault: Crash{Node: PrimaryNode}},
			},
			Invariants: []Checker{
				Promotions{Want: 1}, EpochIs{Want: 2}, ActiveServes{},
				PromotedAfter{Offset: ms(800)}, BoundHeldUntil{Until: ms(800)},
			},
		},
		{
			Name:        "backup-crash-reintegrate",
			Description: "backup crashes at 500ms, restarts at 900ms; recruitment re-registers and state-transfers",
			Events: []FaultEvent{
				{At: ms(500), Fault: Crash{Node: BackupNode}},
				{At: ms(900), Fault: Restart{Node: BackupNode}},
			},
			Invariants: []Checker{
				Converged{}, NoSplitBrain{}, Promotions{Want: 0},
				EpochIs{Want: 1}, BoundHeldUntil{Until: ms(500)}, Progress{MinApplies: 20},
			},
		},
		{
			Name:        "crash-failover-rejoin",
			Description: "primary crashes under 10% loss; the backup promotes, and the fenced old primary rejoins via the directory and catches up over the lossy link",
			Duration:    4 * time.Second,
			Full:        true,
			Link:        netsim.LinkParams{Delay: ms(2), Jitter: ms(1), LossProb: 0.10},
			// The loss stays on through the drain, so the final write needs
			// several periodic-resend opportunities to land; the default
			// 400 ms settle is only two ~200 ms update periods, which leaves
			// Converged hostage to a couple of unlucky tail drops.
			Settle: ms(1200),
			Objects: []core.ObjectSpec{
				wideObject("pressure"), wideObject("flow"),
			},
			// Generous miss budget: at 10% loss per direction a heartbeat
			// round fails ~19% of the time, and a premature promotion is not
			// what this scenario measures.
			Detector: failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 8},
			Events: []FaultEvent{
				{At: ms(800), Fault: Crash{Node: PrimaryNode}},
				// Revive the old primary well after the takeover: it finds
				// itself fenced (the directory names its successor), demotes,
				// and joins as a backup through the chunked exchange.
				{At: ms(1600), Fault: Rejoin{Node: PrimaryNode}},
			},
			Invariants: []Checker{
				Promotions{Want: 1}, EpochIs{Want: 2}, NoSplitBrain{},
				RejoinCaughtUp{Node: PrimaryNode},
				Converged{}, ActiveServes{}, PromotedAfter{Offset: ms(800)},
			},
		},
		{
			Name:        "power-cycle-recover",
			Description: "full-cluster power failure mid-write under 10% loss; the disks are damaged while down (torn tail, bit flip), yet both nodes restart from their stores: the primary resumes fenced, the backup replays its tail and rejoins over only the gap",
			Durable:     true,
			Duration:    4 * time.Second,
			Link:        netsim.LinkParams{Delay: ms(2), Jitter: ms(1), LossProb: 0.10},
			// The loss stays on through the drain; give the final writes
			// room to land (same reasoning as crash-failover-rejoin).
			Settle: ms(1200),
			Objects: []core.ObjectSpec{
				wideObject("pressure"), wideObject("flow"),
			},
			// Generous miss budget for the restarted backup's detector
			// under 10% loss; detection is not what this scenario measures.
			Detector: failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 8},
			Events: []FaultEvent{
				// Power fails mid-write: both stores stop at whatever their
				// last synchronous append was.
				{At: ms(900), Fault: CrashCluster{}},
				// The outage is not clean: the primary's store loses the
				// tail of a write, the backup's store takes a bit flip.
				{At: ms(950), Fault: DiskFault{Node: PrimaryNode, Kind: durable.FaultTornTail}},
				{At: ms(1000), Fault: DiskFault{Node: BackupNode, Kind: durable.FaultCorruptRecord}},
				// The primary restarts first: the directory still names it,
				// so it resumes serving under a fenced epoch bump.
				{At: ms(1200), Fault: RestartFromDisk{Node: PrimaryNode}},
				// The backup restarts into a recorded successor: it replays
				// its local tail, then anti-entropy covers only the gap.
				{At: ms(1500), Fault: RestartFromDisk{Node: BackupNode}},
			},
			Invariants: []Checker{
				DiskRecovered{Node: PrimaryNode, MinObjects: 2, Source: "disk", Stopped: "torn-tail"},
				DiskRecovered{Node: BackupNode, MinObjects: 2, Source: "disk+gap"},
				RejoinCaughtUp{Node: BackupNode},
				Converged{}, ActiveServes{}, NoSplitBrain{},
				EpochIs{Want: 2}, Promotions{Want: 0},
			},
		},
		{
			Name:        "split-brain-fencing",
			Description: "asymmetric partition promotes the standby; the fenced zombie primary's writes must not reach replicated state",
			Standby:     true,
			Duration:    ms(2500),
			Events: []FaultEvent{
				// The standby stops hearing heartbeat acks, but the zombie
				// primary's updates still flow everywhere: the classic
				// asymmetric failure that elects a second primary while the
				// first is alive.
				{At: ms(600), Fault: PartitionOneWay{From: StandbyNode, To: PrimaryNode}},
				// After the takeover, only scripted writes hit the zombie so
				// the last word on each object is unambiguous.
				{At: ms(1400), Fault: StopWriters{}},
				{At: ms(1500), Fault: Write{Node: PrimaryNode, Object: "pressure", Value: "zombie-1"}},
				{At: ms(1600), Fault: Write{Node: PrimaryNode, Object: "pressure", Value: "zombie-2"}},
				{At: ms(1700), Fault: Write{Node: StandbyNode, Object: "pressure", Value: "epoch2-final"}},
			},
			Invariants: []Checker{
				Promotions{Want: 1}, EpochIs{Want: 2}, NoSplitBrain{},
				Converged{}, ActiveServes{}, PromotedAfter{Offset: ms(600)},
			},
		},
		{
			Name:        "heartbeat-suppression",
			Description: "a wedged detector misses a real crash; detection resumes with suppression lifted",
			Duration:    ms(2500),
			Events: []FaultEvent{
				{At: ms(400), Fault: Suppress{Node: BackupNode, On: true}},
				{At: ms(600), Fault: Crash{Node: PrimaryNode}},
				{At: ms(1500), Fault: Suppress{Node: BackupNode, On: false}},
			},
			Invariants: []Checker{
				Promotions{Want: 1}, EpochIs{Want: 2}, ActiveServes{},
				PromotedAfter{Offset: ms(1500)}, BoundHeldUntil{Until: ms(600)},
			},
		},
		{
			Name:        "partition-flap",
			Description: "three 65ms partition flaps: too short to kill the primary, long enough to lose updates",
			Duration:    ms(2400),
			Events: []FaultEvent{
				{At: ms(510), Fault: Partition{A: PrimaryNode, B: BackupNode}},
				{At: ms(575), Fault: Heal{A: PrimaryNode, B: BackupNode}},
				{At: ms(1010), Fault: Partition{A: PrimaryNode, B: BackupNode}},
				{At: ms(1075), Fault: Heal{A: PrimaryNode, B: BackupNode}},
				{At: ms(1510), Fault: Partition{A: PrimaryNode, B: BackupNode}},
				{At: ms(1575), Fault: Heal{A: PrimaryNode, B: BackupNode}},
			},
			Invariants: []Checker{
				Converged{}, BoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 20},
			},
		},
		{
			Name: "inter-object-skew",
			// "Skew" here is temporal distance between two object images at
			// the same site (|T_i − T_j| under Section 3's inter-object
			// constraint), not clock skew between nodes — the clock-fault
			// scenarios are clock-step-false-failover and
			// drift-erodes-bounds.
			Description: "related objects under jitter: the inter-object temporal-distance bound |T_i−T_j| ≤ δij holds at the backup (no clock faults here)",
			Objects: []core.ObjectSpec{
				standardNamed("pressure"),
				standardNamed("temperature"),
			},
			InterObjects: []temporal.InterObjectConstraint{
				{I: "pressure", J: "temperature", Delta: ms(200)},
			},
			Detector: failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 12},
			Events: []FaultEvent{
				{At: ms(500), Fault: Degrade{A: PrimaryNode, B: BackupNode,
					Link: netsim.LinkParams{Delay: ms(2), Jitter: ms(15)}}},
				{At: ms(1300), Fault: Heal{A: PrimaryNode, B: BackupNode}},
			},
			Invariants: []Checker{
				Converged{}, BoundHeld{}, InterBoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, Progress{MinApplies: 20},
			},
		},
		{
			Name:        "multi-fault-storm",
			Description: "loss burst, standby crash/restart, primary crash with racing detectors, duplication aftershock",
			Standby:     true,
			Duration:    6 * time.Second,
			Detector:    failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 6},
			Full:        true,
			Events: []FaultEvent{
				{At: ms(400), Fault: Degrade{A: PrimaryNode, B: BackupNode,
					Link: netsim.LinkParams{Delay: ms(2), Jitter: ms(1), LossProb: 0.15}}},
				{At: ms(1000), Fault: Heal{A: PrimaryNode, B: BackupNode}},
				{At: ms(1500), Fault: Crash{Node: StandbyNode}},
				{At: ms(2200), Fault: Restart{Node: StandbyNode}},
				// Both surviving detectors race; name-service arbitration
				// must elect exactly one successor.
				{At: ms(3000), Fault: Crash{Node: PrimaryNode}},
				{At: ms(3800), Fault: Degrade{A: BackupNode, B: StandbyNode,
					Link: netsim.LinkParams{Delay: ms(2), Jitter: ms(1), DuplicateProb: 0.4}}},
				{At: ms(4500), Fault: Heal{A: BackupNode, B: StandbyNode}},
			},
			Invariants: []Checker{
				Promotions{Want: 1}, EpochIs{Want: 2}, NoSplitBrain{},
				Converged{}, ActiveServes{},
			},
		},
		{
			Name:        "overload-degrade-recover",
			Description: "a CPU hog starves update sends; the governor sheds load down the ladder and restores every object after the heal",
			Duration:    4 * time.Second,
			Full:        true,
			Objects: []core.ObjectSpec{
				wideObject("altitude"), wideObject("airspeed"), wideObject("heading"),
				wideObject("pressure"), wideObject("fuel"), wideObject("temperature"),
			},
			// Generous miss budget: heartbeat acks queue behind the hog's
			// bursts, and detection is not what this scenario measures.
			Detector: failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 20},
			// Expensive update transmissions give the hog something real to
			// contend with: the six objects' full-rate send demand (~15% of
			// the CPU) overwhelms the 10% the hog leaves, while the demand
			// that survives a full shed (~3%: client writes plus one
			// compressed object) fits with room to drain the backlog.
			Costs: core.CostModel{
				ClientOp:   200 * time.Microsecond,
				UpdateSend: 5 * time.Millisecond,
				PerByte:    2 * time.Nanosecond,
			},
			// This scenario exercises the per-update overload ladder, so
			// frame coalescing is pinned off: batching amortizes the fixed
			// send cost ~6x here, which would absorb the hog before the
			// governor ever saw contention (the batched path's win is measured
			// by the benchmark's wire.* layer metrics, not re-litigated here).
			FrameBatch:  1,
			WritePeriod: ms(80),
			Governor: core.GovernorConfig{
				Enable:           true,
				Interval:         ms(10),
				DemoteStaleness:  0.15,
				PromoteStaleness: 0.05,
				PromoteHold:      15,
			},
			Events: []FaultEvent{
				// 90% CPU theft for 1.5s, starting after a clean warmup.
				{At: ms(800), Fault: CPUHog{Node: PrimaryNode,
					Period: ms(10), Burn: ms(9), For: ms(1500)}},
			},
			Invariants: []Checker{
				// Mid-storm checkpoint: the ladder must actually have
				// engaged while the hog ran...
				GovernorDegradedAt{At: ms(2200), MinDegraded: 2, MinShed: 1},
				// ...and fully unwound by the end, with the temporal
				// bounds (suspended while shed, effective while
				// compressed) intact throughout.
				GovernorRecovered{MinDemotions: 3},
				Converged{}, BoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 20},
			},
		},
		{
			Name:        "loss-storm-backoff",
			Description: "35% loss for 1.2s; the backup's gap-recovery backoff keeps the request storm damped while full-state updates repair the image",
			Duration:    ms(2600),
			Full:        true,
			Objects: []core.ObjectSpec{
				// The fast object's transmission period sits under the
				// retransmit backoff window, so gap-flagged arrivals keep
				// landing inside it: the shape that made unthrottled builds
				// storm. The wide objects ride along at the baseline rate.
				fastObject("gyro"),
				wideObject("pressure"), wideObject("temperature"),
			},
			Detector: failover.DetectorConfig{
				Interval: ms(50), Timeout: ms(30), MaxMisses: 10, Adaptive: true,
			},
			Events: []FaultEvent{
				{At: ms(600), Fault: Degrade{A: PrimaryNode, B: BackupNode,
					Link: netsim.LinkParams{Delay: ms(2), Jitter: ms(1), LossProb: 0.35}}},
				{At: ms(1800), Fault: Heal{A: PrimaryNode, B: BackupNode}},
			},
			Invariants: []Checker{
				RetransmitDamped{MaxRequests: 40, MinSuppressed: 5},
				// The gyro's δB is too tight to survive a 35% loss storm by
				// design; the bound is checkpointed before the storm and the
				// image must converge after the heal.
				BoundHeldUntil{Until: ms(600)},
				Converged{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 20},
			},
		},
		ClockStepScenario(false),
		{
			Name:        "drift-erodes-bounds",
			Description: "backup oscillator drifts with sync probes suppressed: the clock-sync error bound θ ages past the fast object's slack, the monitor suspends judgement (unverifiable, never a silent verdict), and verification resumes when probes return",
			Duration:    5 * time.Second,
			ClockSync:   true,
			// The estimators assume a 2% worst-case relative drift when aging
			// θ between probes; the injected fault drifts at 0.2%, so the
			// aged bound honestly dominates the real error (HonestBounds
			// checks this against ground truth throughout) while eroding
			// fast enough for the spell to fit the run.
			ClockSyncMaxDriftPPM: 20000,
			// One fast object (δB=60ms): θ starts near the 2ms one-way delay
			// and grows 20ms per suppressed second, entering the gray band
			// around t≈2.4s and consuming the whole bound around t≈3.4s.
			Objects: []core.ObjectSpec{fastObject("gyro")},
			// Heartbeats carry the sync probes, so suppressing the detector
			// is exactly what starves the estimator; the miss budget only
			// matters for the healthy phases.
			Detector: failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 10},
			Events: []FaultEvent{
				{At: ms(200), Fault: ClockDrift{Node: BackupNode, PPM: 2000}},
				{At: ms(500), Fault: Suppress{Node: BackupNode, On: true}},
				{At: ms(4500), Fault: Suppress{Node: BackupNode, On: false}},
			},
			Invariants: []Checker{
				// Never a provable violation: staleness stays ~20ms, far from
				// δB+θ, and the offset-corrected stamps keep it honest.
				BoundHeld{},
				// The erosion must actually surface as suspended judgement...
				UnverifiableWindow{MinTime: ms(800)},
				// ...and the estimator's claimed θ must dominate its true
				// error the whole way.
				HonestBounds{Site: BackupNode},
				Converged{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 20},
			},
		},
		{
			Name:        "observer-chain-partition",
			Description: "a two-hop observer chain loses its inner link: the cut observer's certificates age honestly (age ≥ true staleness, never silently fresh beyond δB), the chain re-converges after the heal, and no observer ever enters a quorum or gets promoted",
			Duration:    3 * time.Second,
			ClockSync:   true,
			Detector:    failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 10},
			Observers: []ObserverSpec{
				{Name: ObserverANode, Upstream: PrimaryNode},
				{Name: ObserverBNode, Upstream: ObserverANode},
			},
			Events: []FaultEvent{
				// Cut the chain's inner hop: observer-b keeps serving reads
				// but its stream source is gone. The primary, backup, and
				// observer-a never notice — exactly the failure the
				// certificate must surface on its own.
				{At: ms(800), Fault: Partition{A: ObserverANode, B: ObserverBNode}},
				{At: ms(2000), Fault: Heal{A: ObserverANode, B: ObserverBNode}},
			},
			Invariants: []Checker{
				// During the cut, every certificate observer-b serves must
				// carry the truth: age+θ dominates the real staleness, and
				// once the image is truly past δB the certificate must have
				// stopped claiming Fresh (at 40ms writes and δB=250ms the
				// window yields dozens of provably-stale samples).
				ObserverHonestCerts{Node: ObserverBNode, From: ms(900), To: ms(2000), MinStale: 10},
				// After the heal — while the writers still run — the relayed
				// stream plus downstream gap recovery must bring observer-b
				// back under its bound: certificates go Fresh again.
				ObserverHonestCerts{Node: ObserverBNode, From: ms(2400), To: ms(3000), MinFresh: 5},
				ObserverExcluded{SyncedPeers: 1},
				ObserverConverged{},
				Converged{}, BoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 20},
			},
		},
		{
			Name:        "endurance-soak",
			Description: "20s of persistent mild loss, duplication, and jitter: bounds hold the whole way",
			Duration:    20 * time.Second,
			Detector:    failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 10},
			Full:        true,
			Events: []FaultEvent{
				{At: ms(200), Fault: Degrade{A: PrimaryNode, B: BackupNode,
					Link: netsim.LinkParams{Delay: ms(2), Jitter: ms(5), LossProb: 0.05, DuplicateProb: 0.05}}},
			},
			Invariants: []Checker{
				Converged{}, BoundHeld{}, NoSplitBrain{},
				Promotions{Want: 0}, EpochIs{Want: 1}, Progress{MinApplies: 150},
			},
		},
	}
}

// ClockStepScenario returns the clock-step false-failover scenario: a
// tolerable 300ms ack outage during which the backup's wall clock steps
// forward one second — an NTP step landing at the worst moment. The
// hardened detector (wallClockElapsed=false, the catalogue arm) measures
// silence on the monotonic timebase and rides the outage out; the
// ablation arm (wallClockElapsed=true, pinned by a regression test)
// differences wall-clock readings, conflates the step with silence, and
// kills a live primary. Clock sync stays off: the scenario isolates the
// detector's timebase, and the stepped backup's applied stamps are
// knowingly wrong afterwards (hence the bound checkpoint at the
// partition rather than a full-run bound).
func ClockStepScenario(wallClockElapsed bool) Scenario {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	sc := Scenario{
		Name:        "clock-step-false-failover",
		Description: "a +1s wall-clock step on the backup during a tolerable 300ms ack outage: the monotonic-timebase detector must not manufacture a failover",
		Duration:    ms(2500),
		Detector: failover.DetectorConfig{
			Interval:           ms(50),
			Timeout:            ms(30),
			MaxMisses:          3,
			Adaptive:           true,
			SuspicionThreshold: 50,
			MaxSilence:         ms(500),
			WallClockElapsed:   wallClockElapsed,
		},
		Events: []FaultEvent{
			// Acks vanish (updates keep flowing out of the primary and
			// dying on the cut direction): a 300ms outage, well inside
			// MaxSilence and below the suspicion threshold.
			{At: ms(1000), Fault: PartitionOneWay{From: PrimaryNode, To: BackupNode}},
			// Mid-outage, the backup's clock steps forward one second.
			{At: ms(1100), Fault: ClockStep{Node: BackupNode, Delta: time.Second}},
			{At: ms(1300), Fault: Heal{A: PrimaryNode, B: BackupNode}},
		},
		Invariants: []Checker{
			Promotions{Want: 0}, EpochIs{Want: 1}, NoSplitBrain{},
			Converged{}, BoundHeldUntil{Until: ms(1000)}, Progress{MinApplies: 20},
		},
	}
	if wallClockElapsed {
		sc.Name = "clock-step-false-failover-ablation"
		sc.Description = "control arm: the wall-clock-elapsed detector conflates the +1s step with silence and kills the live primary"
		sc.Invariants = []Checker{
			Promotions{Want: 1}, EpochIs{Want: 2}, NoSplitBrain{},
			ActiveServes{}, PromotedAfter{Offset: ms(1100)},
		}
	}
	return sc
}

// Find returns the catalogue scenario with the given name.
func Find(name string) (Scenario, bool) {
	for _, sc := range Catalogue() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// RejoinBench returns the crash-failover-rejoin scenario with the link
// loss overridden — the configuration rtpbench sweeps to measure the
// rejoined replica's catch-up time versus loss.
func RejoinBench(loss float64) Scenario {
	sc, _ := Find("crash-failover-rejoin")
	sc.Link.LossProb = loss
	return sc
}

// RejoinSweep returns the disk-vs-network rejoin measurement scenario:
// a mostly-quiescent wide state (4 hot objects under continuous writes,
// 96 cold objects written exactly once) whose primary crashes and later
// rejoins the promoted successor. In network mode the rejoin is a plain
// directory-driven join, so the anti-entropy exchange streams all ~100
// objects chunk by chunk over the lossy link; in disk mode the node
// restarts from its durable store first, the join digest advertises the
// recovered values, and the exchange covers only the handful of hot
// objects written during the downtime — catch-up cost proportional to
// downtime, not state size. Result.RejoinTransfer is the compared
// quantity (JoinAccept to exchange completion; directory polling and
// failover latency are identical across modes and excluded).
func RejoinSweep(loss float64, disk bool) Scenario {
	ms := func(d int) time.Duration { return time.Duration(d) * time.Millisecond }
	const hot, cold = 4, 96
	objects := make([]core.ObjectSpec, 0, hot+cold)
	for i := 0; i < hot; i++ {
		objects = append(objects, wideObject(fmt.Sprintf("hot-%02d", i)))
	}
	for i := 0; i < cold; i++ {
		objects = append(objects, coldObject(fmt.Sprintf("cold-%02d", i)))
	}
	mode := "network"
	revive := Fault(Rejoin{Node: PrimaryNode})
	if disk {
		mode = "disk"
		revive = RestartFromDisk{Node: PrimaryNode}
	}
	return Scenario{
		Name: fmt.Sprintf("rejoin-sweep-%s-loss-%d", mode, int(loss*100+0.5)),
		Description: fmt.Sprintf(
			"wide quiescent state, %s-mode rejoin at %.0f%% loss: transfer cost of the crashed primary's return",
			mode, loss*100),
		Durable:    disk,
		HotObjects: hot,
		Duration:   8 * time.Second,
		Settle:     ms(1200),
		Link:       netsim.LinkParams{Delay: ms(2), Jitter: ms(1), LossProb: loss},
		Objects:    objects,
		// Generous miss budget: the crash itself stops every ack, so
		// detection stays prompt; the budget only suppresses false
		// positives under loss.
		Detector: failover.DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 8},
		Events: []FaultEvent{
			// Crash well after the cold writes have replicated; the backup
			// promotes on detection (~400ms later) and keeps serving the
			// hot set.
			{At: ms(1500), Fault: Crash{Node: PrimaryNode}},
			// Revive well after the promotion has landed in the directory,
			// so both modes find the successor on their first poll.
			{At: ms(2500), Fault: revive},
		},
		Invariants: []Checker{
			Promotions{Want: 1}, EpochIs{Want: 2}, NoSplitBrain{},
			RejoinSynced{Node: PrimaryNode}, ActiveServes{},
		},
	}
}

// standardNamed is StandardObject with a different name, for multi-object
// scenarios.
func standardNamed(name string) core.ObjectSpec {
	spec := StandardObject()
	spec.Name = name
	return spec
}

// wideObject is standardNamed with a roomier backup bound (δB=450ms),
// the shape used by overload and loss-storm scenarios where staleness is
// expected to grow legitimately before the resilience layer reacts.
func wideObject(name string) core.ObjectSpec {
	spec := standardNamed(name)
	spec.Constraint.DeltaB = 450 * time.Millisecond
	return spec
}

// coldObject is a quiescent wide-state object: written once early in
// the run and never again, with a long period and loose bounds so ~a
// hundred of them stay admissible beside the hot set. Cold objects are
// what make state size diverge from downtime — the axis the disk-fast
// rejoin sweep measures.
func coldObject(name string) core.ObjectSpec {
	return core.ObjectSpec{
		Name:         name,
		Size:         64,
		UpdatePeriod: 200 * time.Millisecond,
		Constraint: temporal.ExternalConstraint{
			DeltaP: 250 * time.Millisecond,
			DeltaB: 650 * time.Millisecond,
		},
	}
}

// fastObject is a high-rate object with tight bounds: its admitted
// transmission period (~17.5ms) is shorter than the retransmit backoff
// base window, so under burst loss successive gap-flagged arrivals land
// inside the throttle — the storm shape the backoff exists to damp.
func fastObject(name string) core.ObjectSpec {
	spec := standardNamed(name)
	spec.UpdatePeriod = 10 * time.Millisecond
	spec.Constraint.DeltaP = 20 * time.Millisecond
	spec.Constraint.DeltaB = 60 * time.Millisecond
	return spec
}
