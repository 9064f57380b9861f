package main

import (
	"fmt"
	"slices"
	"time"

	"rtpb"
	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/xkernel"
)

// The object declaration every live workload registers: p = 100 ms,
// delta_P = 120 ms, delta_B = 320 ms. With ell = 5 ms and the default
// slack of 1/2 admission derives r = (320 - 120 - 5) / 2 = 97.5 ms.
const (
	declaredPeriod = 100 * time.Millisecond
	declaredDeltaP = 120 * time.Millisecond
	declaredDeltaB = 320 * time.Millisecond
	ell            = 5 * time.Millisecond
)

func objectName(i int) string { return fmt.Sprintf("obj%03d", i) }

func objectSpec(i, size int) core.ObjectSpec {
	return core.ObjectSpec{
		Name:         objectName(i),
		Size:         size,
		UpdatePeriod: declaredPeriod,
		Constraint:   temporal.ExternalConstraint{DeltaP: declaredDeltaP, DeltaB: declaredDeltaB},
	}
}

// liveNode is one replica wired the way cmd/rtpbd wires it: a RealClock
// loop, a loopback UDPTransport, the rtpb.NewStack/NewStackMTU graph and
// core.NewReplica with production defaults.
type liveNode struct {
	clk *clock.RealClock
	udp *netsim.UDPTransport
	rep *core.Replica
}

// pairConfig is the one dimension each live workload varies.
type pairConfig struct {
	objects    int
	size       int
	scheduling core.SchedulingMode
	mtu        int // 0 = no fragmentation layer
	// wrap, when set, decorates each node's transport before the
	// protocol graph is built on it (the traced run's timing decorator).
	wrap func(primary bool, tr xkernel.Transport) xkernel.Transport
}

// pair is a live primary + backup on loopback UDP with every object
// registered and replicated to the backup.
type pair struct {
	cfg     pairConfig
	primary *liveNode
	backup  *liveNode
	names   []string
}

// onLoop runs fn on the clock's executor and waits for its result.
func onLoop[T any](clk *clock.RealClock, fn func() T) T {
	ch := make(chan T, 1)
	clk.Post(func() { ch <- fn() })
	return <-ch
}

func newLiveNode() (*liveNode, error) {
	clk := clock.NewReal()
	udp, err := netsim.NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		clk.Stop()
		return nil, err
	}
	return &liveNode{clk: clk, udp: udp}, nil
}

// start builds the protocol graph and the replica, as rtpbd's run does.
func (n *liveNode) start(cfg pairConfig, role core.Role, peer string) error {
	var tr xkernel.Transport = n.udp
	if cfg.wrap != nil {
		tr = cfg.wrap(role == core.RolePrimary, tr)
	}
	var port *rtpb.PortProtocol
	var err error
	if cfg.mtu > 0 {
		port, err = rtpb.NewStackMTU(tr, n.clk, cfg.mtu)
	} else {
		port, err = rtpb.NewStack(tr)
	}
	if err != nil {
		return err
	}
	rc := core.Config{Clock: n.clk, Port: port, Ell: ell, Scheduling: cfg.scheduling}
	addr := rtpb.Addr(fmt.Sprintf("%s:%d", peer, rtpb.RTPBPort))
	if role == core.RolePrimary {
		rc.Peers = []rtpb.Addr{addr}
	} else {
		rc.Peer = addr
	}
	return onLoop(n.clk, func() error {
		rep, err := core.NewReplica(rc, role)
		n.rep = rep
		return err
	})
}

// stop tears one node down; it is bounded by the caller.
func (n *liveNode) stop() {
	if n.rep != nil {
		onLoop(n.clk, func() bool { n.rep.Stop(); return true })
	}
	_ = n.udp.Close() // the socket is only closed once; nothing to report
	n.clk.Stop()
}

// joinTimeout bounds how long set-up waits for the backup to hold every
// registration; registrations retry five times at >= 20 ms, so a second
// is generous on loopback.
const joinTimeout = 5 * time.Second

// buildPair brings up both nodes, registers every object on the primary
// and waits until the backup holds them all. It returns how long that
// took: the workload's set-up time.
func buildPair(cfg pairConfig) (*pair, time.Duration, error) {
	t0 := time.Now()
	p := &pair{cfg: cfg}
	var err error
	if p.primary, err = newLiveNode(); err != nil {
		return nil, 0, err
	}
	if p.backup, err = newLiveNode(); err != nil {
		p.close()
		return nil, 0, err
	}
	if err = p.backup.start(cfg, core.RoleBackup, p.primary.udp.LocalAddr()); err != nil {
		p.close()
		return nil, 0, err
	}
	if err = p.primary.start(cfg, core.RolePrimary, p.backup.udp.LocalAddr()); err != nil {
		p.close()
		return nil, 0, err
	}
	// The backup reports each replicated registration; set-up is over
	// when it has seen them all (no polling: a sleep here would round the
	// set-up time up to the host's timer granularity).
	joined := make(chan struct{})
	onLoop(p.backup.clk, func() bool {
		seen := 0
		p.backup.rep.OnRegister = func(core.ObjectSpec) {
			if seen++; seen == cfg.objects {
				close(joined)
			}
		}
		return true
	})
	rejected := onLoop(p.primary.clk, func() string {
		for i := 0; i < cfg.objects; i++ {
			if d := p.primary.rep.Register(objectSpec(i, cfg.size)); !d.Accepted {
				return fmt.Sprintf("%s: %s", objectName(i), d.Reason)
			}
		}
		return ""
	})
	if rejected != "" {
		p.close()
		return nil, 0, fmt.Errorf("admission rejected %s", rejected)
	}
	for i := 0; i < cfg.objects; i++ {
		p.names = append(p.names, objectName(i))
	}
	select {
	case <-joined:
	case <-time.After(joinTimeout):
		p.close()
		return nil, 0, fmt.Errorf("backup holds fewer than %d registrations after %v", cfg.objects, joinTimeout)
	}
	return p, time.Since(t0), nil
}

// teardownTimeout bounds close: a starved RealClock loop may never run
// the posted Stop (the failure shape the unthrottling work walks
// towards), and the benchmark must move on regardless.
const teardownTimeout = 3 * time.Second

// close stops both nodes; it reports false when a node did not stop in
// time and was abandoned.
func (p *pair) close() bool {
	done := make(chan struct{})
	go func() {
		for _, n := range []*liveNode{p.primary, p.backup} {
			if n != nil {
				n.stop()
			}
		}
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(teardownTimeout):
		return false
	}
}

// reportSetup records a run's set-up time: from the start of the workload
// (after any build of the program) to its first measured operation, so all
// the set-ups of the run, done and undone one after the other, and the
// warm-up. One set-up is a few hundred microseconds of thread starts,
// socket opens and loopback round trips, that is a chain of wake-ups, and
// what a wake-up costs on a shared host drifts from one ten minutes to the
// next: the fastest of 300 set-ups moved between 200 and 430 us across the
// ten runs of one batch, their median between 330 and 820 us, which no
// bound of a quarter survives when one set of runs falls into a slow spell
// and the other does not. The whole stretch repeats within a few per cent,
// because the warm-up in it is a fixed second; the price is that a set-up
// has to grow about 2.3 times before setup_s moves by its bound.
// setup_once_us keeps the sharp number beside it, for compare.
func reportSetup(rep *report, begun, firstOp time.Time, setups samples) {
	rep.set("setup_s", firstOp.Sub(begun).Seconds(), len(setups))
	rep.set("setup_once_us", slices.Min(setups)*1e6, len(setups))
	rep.note("set-ups: fastest %.0f us, p25 %.0f, median %.0f", setups.quantile(0)*1e6, setups.quantile(0.25)*1e6, setups.median()*1e6)
}

// measureSetup builds the pair reps times and keeps the last one.
func measureSetup(cfg pairConfig, reps int) (*pair, samples, error) {
	var times samples
	for i := 0; ; i++ {
		p, d, err := buildPair(cfg)
		if err != nil {
			return nil, nil, err
		}
		times.add(d.Seconds())
		if i == reps-1 {
			return p, times, nil
		}
		if !p.close() {
			return nil, nil, fmt.Errorf("set-up repetition %d did not tear down within %v", i, teardownTimeout)
		}
	}
}
