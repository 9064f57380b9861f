package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
)

// This file tests the observer role end to end on the simulated fabric:
// the chained-certificate monotonicity property (age, θ, and depth
// compound per hop; versions never regress), the join gating that keeps
// a chain from accepting subscribers it cannot feed, and the quorum
// exclusions that keep observers out of the cluster's fate.

// chain is the N-hop fan-out fixture: a primary on hosts[0] and hops
// chained observers, obs[k] subscribed to hosts[k] (so obs[0] observes
// the primary directly and each later hop observes the previous one).
// Each observer subscribes itself, exactly as the rtpbd -observe daemon
// does.
type chain struct {
	clk     *clock.SimClock
	net     *netsim.Network
	primary *Replica
	obs     []*Replica
	hosts   []string // hosts[0] = "primary", hosts[k] = "obs<k>"
}

type chainOpts struct {
	seed      int64
	hops      int
	clockSync bool
	// linkFor, when set, picks the link parameters for the hop between
	// hosts[i] and hosts[i+1]; the default 2ms+1ms link covers the rest.
	linkFor func(i int) netsim.LinkParams
	// drive, when set and false for observer k, leaves that observer
	// unsubscribed so a test can sequence its join by hand.
	drive func(k int) bool
}

func newChain(t *testing.T, opts chainOpts) *chain {
	t.Helper()
	hosts := []string{"primary"}
	for k := 1; k <= opts.hops; k++ {
		hosts = append(hosts, fmt.Sprintf("obs%d", k))
	}
	f, hs := fabric(t, opts.seed, netsim.LinkParams{Delay: 2 * time.Millisecond, Jitter: time.Millisecond}, hosts...)
	if opts.linkFor != nil {
		for i := 0; i+1 < len(hosts); i++ {
			if err := f.Net.SetLinkBoth(hosts[i], hosts[i+1], opts.linkFor(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const ell = 8 * time.Millisecond // covers the widest randomized link
	primary, err := NewPrimary(Config{Clock: f.Clock, Port: hs[0].Port, Ell: ell})
	if err != nil {
		t.Fatal(err)
	}
	c := &chain{clk: f.Clock, net: f.Net, primary: primary, hosts: hosts}
	for k := 1; k <= opts.hops; k++ {
		o, err := NewObserver(Config{
			Clock:                f.Clock,
			Port:                 hs[k].Port,
			Peer:                 hs[k-1].Addr,
			Ell:                  ell,
			ClockSync:            opts.clockSync,
			ClockSyncMaxDriftPPM: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.obs = append(c.obs, o)
		if opts.drive == nil || opts.drive(k-1) {
			o.Subscribe(100 * time.Millisecond)
		}
	}
	return c
}

// writeEvery drives periodic client writes on the chain's primary.
func (c *chain) writeEvery(name string, period time.Duration) *clock.Periodic {
	i := 0
	return clock.NewPeriodic(c.clk, 0, period, func() {
		i++
		c.primary.ClientWrite(name, []byte(fmt.Sprintf("v%06d", i)), nil)
	})
}

// requireJoined fails the test unless every observer completed its join.
func (c *chain) requireJoined(t *testing.T) {
	t.Helper()
	for k, o := range c.obs {
		if !o.Joined() {
			t.Fatalf("observer %s (hop %d) never joined", c.hosts[k+1], k+1)
		}
	}
}

// TestChainedCertificateMonotonicity is the chained-certificate property
// test: on a primary → obs1 → obs2 → obs3 chain with seeded random
// per-link delays and a seeded partition/heal fault schedule, every
// sample instant must show, hop by hop down the chain:
//
//   - the version never ahead of the upstream hop's (an observer can
//     only know what its upstream already knew),
//   - age non-decreasing (version stamps ride the relay unchanged, so
//     staleness accumulates, never launders),
//   - θ non-decreasing (each hop adds its own link's clock uncertainty
//     to what its upstream advertised),
//   - depth equal to the hop count from the primary,
//
// and, per node across time, the served version never regresses. The
// schedule is deterministic per seed; -seed explores alternatives.
func TestChainedCertificateMonotonicity(t *testing.T) {
	const hops = 3
	rng := propRand(0x0b5ee7)
	trials := 4
	if testing.Short() {
		trials = 1
	}
	for trial := 0; trial < trials; trial++ {
		trial := trial
		sub := rand.New(rand.NewSource(rng.Int63()))
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			c := newChain(t, chainOpts{
				seed:      sub.Int63(),
				hops:      hops,
				clockSync: true,
				linkFor: func(i int) netsim.LinkParams {
					return netsim.LinkParams{
						Delay:  time.Duration(1+sub.Intn(3)) * time.Millisecond,
						Jitter: time.Duration(sub.Intn(3)) * time.Millisecond,
					}
				},
			})
			d := c.primary.Register(spec("pressure", ms(40), ms(50), ms(250)))
			if !d.Accepted {
				t.Fatalf("registration rejected: %s", d.Reason)
			}
			c.writeEvery("pressure", ms(10))

			// Settle: joins gate on the upstream hop's own join, so the
			// chain completes over ~hops retry rounds of the 100ms loop.
			c.clk.RunFor(700 * time.Millisecond)
			c.requireJoined(t)

			// Seeded fault schedule: non-overlapping partition episodes on
			// random links of the chain, healed after 100–300ms.
			type event struct {
				at time.Duration
				fn func()
			}
			var events []event
			at := 200*time.Millisecond + time.Duration(sub.Intn(200))*time.Millisecond
			for e := 0; e < 3; e++ {
				link := sub.Intn(hops)
				a, b := c.hosts[link], c.hosts[link+1]
				dur := time.Duration(100+sub.Intn(200)) * time.Millisecond
				events = append(events,
					event{at, func() { c.net.Partition(a, b) }},
					event{at + dur, func() { c.net.Heal(a, b) }})
				at += dur + 150*time.Millisecond + time.Duration(sub.Intn(200))*time.Millisecond
			}

			lastVer := make([]time.Time, hops+1)
			for elapsed := time.Duration(0); elapsed < 2*time.Second; {
				step := time.Duration(5+sub.Intn(35)) * time.Millisecond
				c.clk.RunFor(step)
				elapsed += step
				for len(events) > 0 && events[0].at <= elapsed {
					events[0].fn()
					events = events[1:]
				}

				prev, ok := c.primary.Certificate("pressure")
				if !ok {
					t.Fatal("primary lost its own object")
				}
				if prev.Depth != 0 || prev.Theta != 0 {
					t.Fatalf("primary certificate claims depth=%d theta=%v; the serving clock admits nothing", prev.Depth, prev.Theta)
				}
				if prev.Version.Before(lastVer[0]) {
					t.Fatalf("primary version regressed: %v -> %v", lastVer[0], prev.Version)
				}
				lastVer[0] = prev.Version
				for k, o := range c.obs {
					cert, ok := o.Certificate("pressure")
					if !ok {
						t.Fatalf("+%v: hop %d has no certificate", elapsed, k+1)
					}
					if cert.Version.After(prev.Version) {
						t.Fatalf("+%v: hop %d version %v ahead of upstream's %v", elapsed, k+1, cert.Version, prev.Version)
					}
					if cert.Age < prev.Age {
						t.Fatalf("+%v: hop %d age %v below upstream's %v — staleness laundered", elapsed, k+1, cert.Age, prev.Age)
					}
					if cert.Theta < prev.Theta {
						t.Fatalf("+%v: hop %d theta %v below upstream's %v — uncertainty laundered", elapsed, k+1, cert.Theta, prev.Theta)
					}
					if cert.Theta <= 0 || cert.Theta >= UnknownTheta {
						t.Fatalf("+%v: hop %d theta %v outside (0, UnknownTheta) with clock sync on", elapsed, k+1, cert.Theta)
					}
					if cert.Depth != k+1 {
						t.Fatalf("+%v: hop %d certificate claims depth %d", elapsed, k+1, cert.Depth)
					}
					if cert.Version.Before(lastVer[k+1]) {
						t.Fatalf("+%v: hop %d version regressed: %v -> %v", elapsed, k+1, lastVer[k+1], cert.Version)
					}
					lastVer[k+1] = cert.Version
					prev = cert
				}
			}
		})
	}
}

// TestObserverJoinGatedOnUnjoinedUpstream pins the chain-bootstrap rule:
// an observer that has not completed its own upstream join silently
// refuses downstream JoinRequests (a 0-spec accept would strand the
// subscriber forever, since a completed join is never retried), and the
// subscriber's retry loop lands the join once the upstream is ready.
func TestObserverJoinGatedOnUnjoinedUpstream(t *testing.T) {
	c := newChain(t, chainOpts{
		seed: 0x90a7e,
		hops: 2,
		// obs1 joins only by hand; obs2's loop is self-driven.
		drive: func(k int) bool { return k == 1 },
	})
	d := c.primary.Register(spec("pressure", ms(40), ms(50), ms(250)))
	if !d.Accepted {
		t.Fatalf("registration rejected: %s", d.Reason)
	}
	c.writeEvery("pressure", ms(10))

	// obs2 retries against a never-joined obs1 for 400ms: every request
	// must be refused, not answered with an empty accept.
	c.clk.RunFor(400 * time.Millisecond)
	if c.obs[1].Joined() {
		t.Fatal("obs2 joined through an upstream that never joined itself")
	}

	c.obs[0].Join()
	c.clk.RunFor(400 * time.Millisecond)
	c.requireJoined(t)
	cert, ok := c.obs[1].Certificate("pressure")
	if !ok {
		t.Fatal("obs2 joined but serves no certificate — the relayed spec never landed")
	}
	if cert.Depth != 2 {
		t.Fatalf("obs2 certificate depth = %d, want 2", cert.Depth)
	}
	if len(cert.Value) == 0 {
		t.Fatal("obs2 certificate carries no value")
	}
}

// TestObserverExcludedFromQuorumAndPromotion checks the role fences on a
// mixed cluster (primary + voting backup + observer): the observer never
// counts toward the replication degree, its peer entry is flagged, and
// promoting it is a hard error that leaves the role untouched.
func TestObserverExcludedFromQuorumAndPromotion(t *testing.T) {
	f, hs := fabric(t, 0xc4a1, netsim.LinkParams{Delay: 2 * time.Millisecond, Jitter: time.Millisecond},
		"primary", "backup", "obs1")
	clk, p, b, o := f.Clock, hs[0], hs[1], hs[2]
	primary, err := NewPrimary(Config{Clock: clk, Port: p.Port, Peer: b.Addr, Ell: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBackup(Config{Clock: clk, Port: b.Port, Peer: p.Addr, Ell: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	obs, err := NewObserver(Config{Clock: clk, Port: o.Port, Peer: p.Addr, Ell: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	obs.Subscribe(100 * time.Millisecond)
	d := primary.Register(spec("gauge", ms(40), ms(50), ms(250)))
	if !d.Accepted {
		t.Fatalf("registration rejected: %s", d.Reason)
	}
	clk.RunFor(300 * time.Millisecond)

	if !obs.Joined() {
		t.Fatal("observer never joined")
	}
	if got := primary.SyncedPeers(); got != 1 {
		t.Fatalf("SyncedPeers() = %d, want 1 (the backup alone)", got)
	}
	if got := primary.ObserverPeers(); got != 1 {
		t.Fatalf("ObserverPeers() = %d, want 1", got)
	}
	for _, ps := range primary.PeerStates() {
		wantObserver := ps.Addr == "obs1:7000"
		if ps.Observer != wantObserver {
			t.Errorf("peer %s: Observer = %v, want %v", ps.Addr, ps.Observer, wantObserver)
		}
	}

	if err := obs.Promote(9); err != ErrNotBackup {
		t.Fatalf("Promote on an observer returned %v, want ErrNotBackup", err)
	}
	if obs.Role() != RoleObserver {
		t.Fatalf("failed promotion changed the role to %v", obs.Role())
	}
}

// TestCriticalWriteCompletesWithoutObserverQuorum pins the hybrid path's
// observer exclusion end to end: with only an observer attached, a
// critical write has no voting quorum to await — it degrades to local
// completion instead of soliciting (or timing out on) observer acks.
func TestCriticalWriteCompletesWithoutObserverQuorum(t *testing.T) {
	c := newChain(t, chainOpts{seed: 0xac3, hops: 1})
	d := c.primary.Register(ObjectSpec{
		Name:         "alarm",
		Size:         64,
		UpdatePeriod: ms(40),
		Constraint:   spec("alarm", ms(40), ms(50), ms(250)).Constraint,
		Critical:     true,
	})
	if !d.Accepted {
		t.Fatalf("registration rejected: %s", d.Reason)
	}
	c.clk.RunFor(300 * time.Millisecond)
	c.requireJoined(t)
	if got := c.primary.SyncedPeers(); got != 0 {
		t.Fatalf("SyncedPeers() = %d, want 0 — the observer leaked into the degree", got)
	}

	var calls int
	var gotErr error
	c.primary.ClientWrite("alarm", []byte("fire"), func(_ time.Duration, err error) {
		calls++
		gotErr = err
	})
	c.clk.RunFor(50 * time.Millisecond)
	if calls != 1 {
		t.Fatalf("critical write completed %d times, want 1", calls)
	}
	if gotErr != nil {
		t.Fatalf("critical write failed: %v (observer acks must not be awaited)", gotErr)
	}
}

// TestRoleLattice pins which roles shadow an upstream: backups and
// observers apply a replicated update stream, the primary does not.
func TestRoleLattice(t *testing.T) {
	for role, want := range map[Role]bool{RolePrimary: false, RoleBackup: true, RoleObserver: true} {
		if got := role.Shadows(); got != want {
			t.Errorf("%v.Shadows() = %v, want %v", role, got, want)
		}
	}
}

// TestSubscribeDrivesAttachUntilStop pins Subscribe's two loops: the
// observer joins on its own, heartbeats once per interval at the
// half-interval offset, and Stop silences both.
func TestSubscribeDrivesAttachUntilStop(t *testing.T) {
	c := newChain(t, chainOpts{seed: 0x5b, hops: 1})
	// The link loses nothing: the observer's ping count is what the
	// primary heard, and each join it accepted was answered once.
	counts := func() (pings uint64, joins int) {
		return c.obs[0].pingSeq, c.primary.PeerStates()[0].Transfer.JoinAccepts
	}
	c.clk.RunFor(300 * time.Millisecond)
	c.requireJoined(t)
	if pings, joins := counts(); pings != 3 || joins != 1 {
		t.Fatalf("after 300ms: %d pings, %d join requests; want 3 (at 50, 150, 250ms) and 1", pings, joins)
	}
	c.obs[0].Stop()
	c.clk.RunFor(time.Second)
	if pings, joins := counts(); pings != 3 || joins != 1 {
		t.Fatalf("after Stop: %d pings, %d join requests; the loops outlived the replica", pings, joins)
	}
}
