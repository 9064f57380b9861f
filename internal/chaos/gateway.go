package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/gateway"
	"rtpb/internal/shard"
	"rtpb/internal/temporal"
)

// GatewayScenario is a deterministic fault-injection run against the
// full front-to-back stack: a sharded cluster fronted by a session/group
// gateway, with hundreds of churning sessions and a hotspot write burst
// that drives one shard's overload governor to shed. It checks the
// admission-aware backpressure contract end to end — the gateway must
// refuse new sessions and stop the shed shard's broadcast fan-in while
// never dropping a client write — and the blast-radius property: the
// quiet shard's subscribers keep their temporal bounds throughout.
type GatewayScenario struct {
	// Name and Description identify the scenario in listings.
	Name        string
	Description string
	// Seed drives the fabric's loss/jitter draws; defaults to 1.
	Seed int64
}

func (s *GatewayScenario) normalize() {
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// The gateway scenario's shape: the target concurrent session
// population, the workload phase and its post-workload drain, the
// gateway fan-out tick, each session's lifetime before it disconnects
// (the churn that lets the population decay under shed), and the window
// of the hotspot write storm on shard 0.
const (
	gatewaySessions        = 500
	gatewayDuration        = 4 * time.Second
	gatewaySettle          = 400 * time.Millisecond
	gatewayBroadcastPeriod = 50 * time.Millisecond
	gatewaySessionTTL      = time.Second
	gatewayBurstAt         = 800 * time.Millisecond
	gatewayBurstFor        = 700 * time.Millisecond
)

// GatewayCatalogue returns the canned gateway scenarios.
func GatewayCatalogue() []GatewayScenario {
	return []GatewayScenario{
		{
			Name: "gateway-shed-recover",
			Description: "a hotspot write burst sheds one shard; the gateway refuses new sessions and " +
				"freezes that shard's broadcast fan-in, the quiet shard's bounds never waver, " +
				"and the session population degrades and recovers",
		},
	}
}

// chaosSink records per-session delivery for the scenario's streaming
// invariants: sequence monotonicity per object (coalescing must never
// deliver stale-after-fresh), with an injected backlog window on every
// tenth session during the burst so the slow path is actually exercised
// under chaos, deterministically.
type chaosSink struct {
	id        uint64
	clk       *clock.SimClock
	slowFrom  time.Time
	slowUntil time.Time
	lastSeq   map[string]uint64
	delivered int
	violation func(format string, args ...any)
}

func (k *chaosSink) Deliver(f gateway.Frame) error {
	now := k.clk.Now()
	if k.id%10 == 0 && now.After(k.slowFrom) && now.Before(k.slowUntil) {
		return errors.New("injected backlog")
	}
	if last, ok := k.lastSeq[f.Object]; ok && f.Seq <= last {
		k.violation("session %d: %q frame seq %d after %d (stale-after-fresh)",
			k.id, f.Object, f.Seq, last)
	}
	k.lastSeq[f.Object] = f.Seq
	k.delivered++
	return nil
}

func (k *chaosSink) Close() {}

// RunGateway executes a gateway scenario and evaluates its invariants.
// Deterministic like Run and RunShard: the same scenario and seed
// reproduce the Result — including the event log — byte for byte.
func RunGateway(sc GatewayScenario) (*Result, error) {
	sc.normalize()
	res := &Result{Scenario: sc.Name, Seed: sc.Seed}
	violationf := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		res.Violations = append(res.Violations, msg)
		res.Log = append(res.Log, "VIOLATION: "+msg)
	}

	// Two shards under an aggressive governor; client writes are costly
	// so the hotspot's burst is real CPU contention, and admission
	// control is off so the storm is admissible in the first place.
	c, err := shard.NewCluster(shard.Config{
		Shards: 2,
		Seed:   sc.Seed,
		Costs: core.CostModel{
			ClientOp:   2 * time.Millisecond,
			UpdateSend: 400 * time.Microsecond,
			PerByte:    2 * time.Nanosecond,
		},
		// Generous miss budget: heartbeat acks queue behind the burst's
		// CPU backlog, and overload must degrade service, not trigger a
		// failover (the Promotions invariant below).
		Detector: failover.DetectorConfig{
			Interval:  50 * time.Millisecond,
			Timeout:   30 * time.Millisecond,
			MaxMisses: 20,
		},
		Governor: core.GovernorConfig{
			Enable:           true,
			Interval:         10 * time.Millisecond,
			DemoteStaleness:  0.15,
			PromoteStaleness: 0.05,
			PromoteHold:      15,
		},
		DisableAdmissionControl: true,
	})
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	clk := c.Clock()
	start := clk.Now()

	gw, err := gateway.New(gateway.Config{
		Clock:           clk,
		Backend:         gateway.ClusterBackend{Cluster: c},
		BroadcastPeriod: gatewayBroadcastPeriod,
		OnEvent:         func(format string, args ...any) { c.Logf(format, args...) },
	})
	if err != nil {
		return nil, err
	}
	defer gw.Close()

	// Objects: a hot pair pinned to shard 0, a quiet pair on shard 1;
	// one group per shard so the blast radius is visible per group.
	spec := func(name string) core.ObjectSpec {
		return core.ObjectSpec{
			Name:         name,
			Size:         64,
			UpdatePeriod: 20 * time.Millisecond,
			Constraint: temporal.ExternalConstraint{
				DeltaP: 20 * time.Millisecond,
				DeltaB: 120 * time.Millisecond,
			},
		}
	}
	pin := func(name string, want int) error {
		idx, _, err := c.Place(spec(name))
		if err != nil {
			return fmt.Errorf("place %q: %w", name, err)
		}
		if idx != want {
			if err := c.Migrate(name, want); err != nil {
				return fmt.Errorf("migrate %q: %w", name, err)
			}
		}
		return nil
	}
	groupOf := map[string][]string{
		"hot":   {"hot0", "hot1"},
		"quiet": {"quiet0", "quiet1"},
	}
	for _, name := range groupOf["hot"] {
		if err := pin(name, 0); err != nil {
			return nil, err
		}
	}
	for _, name := range groupOf["quiet"] {
		if err := pin(name, 1); err != nil {
			return nil, err
		}
	}
	gw.Bind("hot", groupOf["hot"]...)
	gw.Bind("quiet", groupOf["quiet"]...)
	for _, names := range groupOf {
		for _, name := range names {
			c.WriteEvery(name, 20*time.Millisecond)
		}
	}

	// Session churn toward the target population: one connect attempt
	// per 2ms whenever below target, groups assigned round-robin, each
	// session living one TTL. Under shed the attempts are refused while
	// TTL expiries continue, so the population decays; after recovery
	// the same churn refills it.
	burstStart := start.Add(gatewayBurstAt)
	burstEnd := burstStart.Add(gatewayBurstFor)
	groups := []string{"hot", "quiet"}
	var connectAttempts, connectRejected int
	nextGroup := 0
	churn := clock.NewPeriodic(clk, 0, 2*time.Millisecond, func() {
		if gw.Stats().Sessions >= gatewaySessions {
			return
		}
		connectAttempts++
		sink := &chaosSink{
			clk:       clk,
			slowFrom:  burstStart,
			slowUntil: burstEnd,
			lastSeq:   make(map[string]uint64),
			violation: violationf,
		}
		s, err := gw.Connect(sink)
		if err != nil {
			connectRejected++
			return
		}
		sink.id = s.ID()
		if err := gw.Subscribe(s, groups[nextGroup%len(groups)]); err != nil {
			violationf("subscribe failed: %v", err)
		}
		nextGroup++
		clk.Schedule(gatewaySessionTTL, s.Close)
	})
	defer churn.Stop()

	// The hotspot: an extra write storm on the hot objects, 2ms of CPU
	// each at a 2ms period per object — a sustained 2x overload on
	// shard 0 that shedding update transmissions cannot relieve, so the
	// governor must bottom out at shed and only the burst's end lets it
	// climb back.
	var burst []*clock.Periodic
	clk.Schedule(gatewayBurstAt, func() {
		c.Logf("gateway-chaos: hotspot burst begins")
		for i, name := range groupOf["hot"] {
			name := name
			seq := i
			burst = append(burst, clock.NewPeriodic(clk, 0, 2*time.Millisecond, func() {
				seq += len(groupOf["hot"])
				_ = c.Write(name, []byte(fmt.Sprintf("burst-%d", seq)), nil)
			}))
		}
	})
	clk.Schedule(gatewayBurstAt+gatewayBurstFor, func() {
		for _, b := range burst {
			b.Stop()
		}
		c.Logf("gateway-chaos: hotspot burst ends")
	})

	// A write probe through the gateway itself: one write every 20ms to
	// a dedicated shard-0 object, proving the shed ladder never touches
	// the write path. The object stays out of the groups and the
	// convergence bookkeeping — it exists only to be written through the
	// front door while the shard sheds.
	if err := pin("gwprobe", 0); err != nil {
		return nil, err
	}
	var gwWrites, gwWritesDuringShed, gwWriteErrs, gwWriteDone int
	gwWriter := clock.NewPeriodic(clk, 0, 20*time.Millisecond, func() {
		gwWrites++
		if c.Health(0).Shedding() {
			gwWritesDuringShed++
		}
		if err := gw.Write("gwprobe", []byte(fmt.Sprintf("probe-%d", gwWrites)), func(_ time.Duration, err error) {
			gwWriteDone++
			if err != nil {
				gwWriteErrs++
			}
		}); err != nil {
			gwWriteErrs++
		}
	})
	defer gwWriter.Stop()

	// Probes: sample the session population and the shed shard's
	// broadcast fan-in at fixed virtual instants.
	type sample struct {
		at        time.Duration
		sessions  int
		mode      gateway.Mode
		shed      bool
		certReads uint64
		rejected  uint64
	}
	var samples []sample
	probe := clock.NewPeriodic(clk, 100*time.Millisecond, 100*time.Millisecond, func() {
		st := gw.Stats()
		s := sample{
			at:        clk.Now().Sub(start),
			sessions:  st.Sessions,
			mode:      gw.Mode(),
			shed:      c.Health(0).Shedding(),
			certReads: gw.CertReads(0),
			rejected:  st.Rejected,
		}
		samples = append(samples, s)
		if s.at%(500*time.Millisecond) == 0 {
			c.Logf("gateway-chaos: sessions=%d mode=%s shard0(shed=%v certReads=%d) rejected=%d",
				s.sessions, s.mode, s.shed, s.certReads, s.rejected)
		}
	})
	defer probe.Stop()

	c.RunFor(gatewayDuration)
	c.StopWriters()
	c.Monitor().FinishAt(clk.Now())
	c.RunFor(gatewaySettle)
	res.Log = append(res.Log, c.Log()...)
	res.Elapsed = clk.Now().Sub(start)

	// --- Invariants ---

	// The governor must actually have shed, the gateway must have
	// mirrored it (mode, refused sessions), and the shed shard's
	// broadcast fan-in must freeze across consecutive shed samples.
	shedSeen, rejectedDuringShed := false, false
	var minDuringShed, maxAfter int
	minDuringShed = gatewaySessions
	for i, s := range samples {
		if !s.shed {
			if s.at > gatewayBurstAt+gatewayBurstFor && s.sessions > maxAfter {
				maxAfter = s.sessions
			}
			continue
		}
		shedSeen = true
		if s.sessions < minDuringShed {
			minDuringShed = s.sessions
		}
		if s.mode != gateway.Shed {
			violationf("at +%v: shard 0 shedding but gateway mode %s", s.at, s.mode)
		}
		if i > 0 && samples[i-1].shed {
			if s.rejected > samples[i-1].rejected {
				rejectedDuringShed = true
			}
			if s.certReads != samples[i-1].certReads {
				violationf("at +%v: shed shard's broadcast fan-in grew (%d -> %d)",
					s.at, samples[i-1].certReads, s.certReads)
			}
		}
	}
	if !shedSeen {
		violationf("shard 0 never shed under the hotspot burst")
	}
	if shedSeen && !rejectedDuringShed {
		violationf("no session was refused while shedding")
	}

	// The population must have degraded under shed and recovered after:
	// churn refills at 500/s once admissions resume.
	if shedSeen && minDuringShed > gatewaySessions*8/10 {
		violationf("session population never degraded under shed (min %d of %d)",
			minDuringShed, gatewaySessions)
	}
	if maxAfter < gatewaySessions*9/10 {
		violationf("session population did not recover after the burst (max %d of %d)",
			maxAfter, gatewaySessions)
	}
	if got := gw.Mode(); got != gateway.Normal {
		violationf("gateway mode at end = %s, want normal", got)
	}

	// Writes are never shed: every gateway write — including those
	// issued while shard 0 was shedding — was forwarded and completed
	// without error (the settle window drains the CPU backlog).
	gwWriter.Stop()
	if gwWriteErrs > 0 {
		violationf("%d gateway write(s) failed; the shed ladder must never touch writes", gwWriteErrs)
	}
	if shedSeen && gwWritesDuringShed == 0 {
		violationf("no gateway write was issued during the shed window (probe too sparse)")
	}
	if gwWriteDone < gwWrites*9/10 {
		violationf("only %d of %d gateway writes completed", gwWriteDone, gwWrites)
	}

	// Blast radius: the quiet shard's backup images kept their external
	// bounds the whole run, and were never suspended.
	quietSite := c.BackupSite(1)
	for _, name := range groupOf["quiet"] {
		rep, ok := c.Monitor().ExternalReport(quietSite, name)
		if !ok {
			violationf("no external report for %s/%s", quietSite, name)
			continue
		}
		if !rep.Consistent() {
			violationf("quiet shard's %q violated δB at %v (max staleness %v)",
				name, rep.ViolationTime, rep.MaxStaleness)
		}
		if c.Monitor().Suspended(quietSite, name) {
			violationf("quiet shard's %q had its bound suspended", name)
		}
	}

	// Convergence: every object — including the shed shard's — drains
	// to its last steady write once the storm ends.
	for _, names := range groupOf {
		for _, name := range names {
			got, _, ok := c.Read(name)
			want := c.LastWritten(name)
			if !ok || !bytes.Equal(got, want) {
				violationf("%q did not converge: primary holds %q, last write %q", name, got, want)
			}
		}
	}

	st := c.Statuses()[0]
	res.Promotions = st.Promotions
	res.FinalEpoch = st.Epoch
	if st.Promotions != 0 {
		violationf("overload must not trigger failover: shard 0 saw %d promotions", st.Promotions)
	}
	return res, nil
}
