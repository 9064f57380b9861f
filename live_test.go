package rtpb_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rtpb"
	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/wire"
)

// liveNode is one replica wired the way cmd/rtpbd wires it: a RealClock
// loop, a loopback UDP socket, the NewStack graph, production defaults.
type liveNode struct {
	clk *clock.RealClock
	udp *netsim.UDPTransport
	tr  rtpb.Transport // udp, or a tap over it
	rep *core.Replica
}

func onLoop[T any](clk *clock.RealClock, fn func() T) T {
	ch := make(chan T, 1)
	clk.Post(func() { ch <- fn() })
	return <-ch
}

func newLiveNode(t *testing.T) *liveNode {
	t.Helper()
	clk := clock.NewReal()
	udp, err := netsim.NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		clk.Stop()
		t.Skipf("UDP unavailable: %v", err)
	}
	return &liveNode{clk: clk, udp: udp, tr: udp}
}

func (n *liveNode) start(t *testing.T, role core.Role, peer *liveNode, mode rtpb.SchedulingMode) {
	t.Helper()
	port, err := rtpb.NewStack(n.tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Clock: n.clk, Port: port, Ell: 5 * time.Millisecond, Scheduling: mode}
	addr := rtpb.Addr(fmt.Sprintf("%s:%d", peer.udp.LocalAddr(), rtpb.RTPBPort))
	if role == core.RolePrimary {
		cfg.Peers = []rtpb.Addr{addr}
	} else {
		cfg.Peer = addr
	}
	if err := onLoop(n.clk, func() (err error) {
		n.rep, err = core.NewReplica(cfg, role)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// newLivePair starts a compressed-mode backup and primary on two
// RealClock loops, the backup receiving through tap when it is not nil.
// stop stops both and fails the test if they do not stop within a second;
// it runs at cleanup too, and may be called more than once.
func newLivePair(t *testing.T, tap *frameTap) (primary, backup *liveNode, stop func()) {
	t.Helper()
	primary, backup = newLiveNode(t), newLiveNode(t)
	if tap != nil {
		tap.Transport, backup.tr = backup.udp, tap
	}
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, n := range []*liveNode{primary, backup} {
				if n.rep != nil {
					onLoop(n.clk, func() bool { n.rep.Stop(); return true })
				}
				n.udp.Close()
				n.clk.Stop()
			}
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Error("the pair did not stop within a second")
		}
	}
	t.Cleanup(stop)
	backup.start(t, core.RoleBackup, primary, rtpb.ScheduleCompressed)
	primary.start(t, core.RolePrimary, backup, rtpb.ScheduleCompressed)
	return primary, backup, stop
}

func objName(i int) string { return fmt.Sprintf("obj%d", i) }

// registerLive registers objects×size B on the primary and waits until the
// backup holds every registration.
func registerLive(t *testing.T, primary, backup *liveNode, objects, size int, timeout time.Duration) {
	t.Helper()
	joined := make(chan struct{})
	onLoop(backup.clk, func() bool {
		seen := 0
		backup.rep.OnRegister = func(core.ObjectSpec) {
			if seen++; seen == objects {
				close(joined)
			}
		}
		return true
	})
	if reason := onLoop(primary.clk, func() string {
		for i := 0; i < objects; i++ {
			if d := primary.rep.Register(core.ObjectSpec{
				Name:         objName(i),
				Size:         size,
				UpdatePeriod: 100 * time.Millisecond,
				Constraint:   rtpb.ExternalConstraint{DeltaP: 120 * time.Millisecond, DeltaB: 320 * time.Millisecond},
			}); !d.Accepted {
				return d.Reason
			}
		}
		return ""
	}); reason != "" {
		t.Fatalf("admission rejected: %s", reason)
	}
	select {
	case <-joined:
	case <-time.After(timeout):
		t.Fatal("backup never held every registration")
	}
}

// waitConverged waits until the backup holds want[i] for every object i.
func waitConverged(t *testing.T, backup *liveNode, want [][]byte, timeout time.Duration) {
	t.Helper()
	converged := func() bool {
		return onLoop(backup.clk, func() bool {
			for i := range want {
				if got, _, ok := backup.rep.Value(objName(i)); !ok || !bytes.Equal(got, want[i]) {
					return false
				}
			}
			return true
		})
	}
	for deadline := time.Now().Add(timeout); !converged(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("backup did not converge on the last values written")
		}
	}
}

// TestLiveCompressedPump runs the compressed-scheduling pump where nothing
// sleeps a modelled cost any more: a primary and a backup on two RealClock
// loops over loopback UDP. The pump must leave the loop to the writes,
// must hold the primary's processor for no more than the share its
// measured charge allows, and must not keep the node from stopping.
// Processor time and completion only; no latency is judged.
func TestLiveCompressedPump(t *testing.T) {
	if testing.Short() {
		t.Skip("live pair on loopback UDP")
	}
	const (
		objects = 8
		size    = 64
		writes  = 200
		timeout = 10 * time.Second
	)
	primary, backup, stop := newLivePair(t, nil)
	sends := 0
	onLoop(primary.clk, func() bool {
		primary.rep.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
		return true
	})
	registerLive(t, primary, backup, objects, size, timeout)

	// 200 writes posted from outside the loop, as rtpbd's ctl server and
	// the benchmark's generator post them, a millisecond apart so that the
	// pump runs for a while between them.
	begin := time.Now()
	busyAt := func() time.Duration {
		return onLoop(primary.clk, func() time.Duration { return primary.rep.CPU().BusyTime() })
	}
	busy0 := busyAt()
	last := make([][]byte, objects)
	completed, failed := 0, 0
	var writesTook time.Duration // each write runs within its latency
	allDone := make(chan struct{})
	for w := 0; w < writes; w++ {
		i := w % objects
		value := bytes.Repeat([]byte{byte(w)}, size)
		last[i] = value
		primary.clk.Post(func() {
			primary.rep.ClientWrite(objName(i), value, func(lat time.Duration, err error) {
				writesTook += lat
				if err != nil {
					failed++
				}
				if completed++; completed == writes {
					close(allDone)
				}
			})
		})
		time.Sleep(time.Millisecond)
	}
	select {
	case <-allDone:
	case <-time.After(timeout):
		t.Fatalf("%d of %d writes completed: the pump starves posted writes",
			onLoop(primary.clk, func() int { return completed }), writes)
	}
	if failed != 0 {
		t.Fatalf("%d of %d writes failed", failed, writes)
	}

	waitConverged(t, backup, last, timeout)
	time.Sleep(100 * time.Millisecond) // the pump alone, re-sending what the backup holds
	sent := onLoop(primary.clk, func() int { return sends })
	busy := busyAt() - busy0
	window := time.Since(begin)

	// internal/cpu charges an Idle item idleFactor times the time it took
	// and lets a chain reclaim at most maxLead, so over the window the pump
	// holds the processor for at most (window + maxLead)/idleFactor.
	const maxLead, idleFactor, slack = 100 * time.Millisecond, 8, 10 * time.Millisecond
	t.Logf("%d sends in %v; processor busy %v, the writes within %v", sent, window, busy, writesTook)
	if bound := (window+maxLead)/idleFactor + writesTook + slack; sent <= 0 || busy > bound {
		t.Fatalf("%d sends, processor busy %v in %v, want > 0 sends and busy <= %v", sent, busy, window, bound)
	}
	stop()
}

// frameTap passes a replica's datagrams through and counts, on its loop,
// the ones that carry updates: how many, the updates they carry, how many
// were frames, how many of those carried want distinct objects, and how
// many carried one object twice.
type frameTap struct {
	rtpb.Transport
	want                                     int
	datagrams, updates, frames, whole, twice int
}

func (t *frameTap) SetReceiver(fn func(from string, payload []byte)) {
	t.Transport.SetReceiver(func(from string, payload []byte) {
		t.observe(payload)
		fn(from, payload)
	})
}

func (t *frameTap) reset() { t.datagrams, t.updates, t.frames, t.whole, t.twice = 0, 0, 0, 0, 0 }

func (t *frameTap) observe(payload []byte) {
	if len(payload) < 4 {
		return
	}
	m, err := wire.Decode(payload[4:]) // past the port protocol's header
	if err != nil {
		return
	}
	msgs := []wire.Message{m}
	f, framed := m.(*wire.Frame)
	if framed {
		msgs = f.Messages
	}
	ids, twice := map[uint32]bool{}, false
	for _, m := range msgs {
		if u, ok := m.(*wire.Update); ok {
			twice = twice || ids[u.ObjectID]
			ids[u.ObjectID] = true
			t.updates++
		}
	}
	if len(ids) == 0 {
		return
	}
	t.datagrams++
	if framed {
		t.frames++
		if len(ids) == t.want {
			t.whole++
		}
		if twice {
			t.twice++
		}
	}
}

// TestLivePumpFrames runs the live pump over more objects than a drain
// slot's FrameBatch (16): each step frames a whole round, every object
// once, so every frame carries exactly the forty objects.
func TestLivePumpFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("live pair on loopback UDP")
	}
	const (
		objects = 40
		timeout = 10 * time.Second
	)
	tap := &frameTap{want: objects}
	primary, backup, stop := newLivePair(t, tap)
	registerLive(t, primary, backup, objects, 64, timeout)

	values := make([][]byte, objects)
	for i := range values {
		values[i] = bytes.Repeat([]byte{byte('a' + i)}, 64)
	}
	primary.clk.Post(func() {
		for i, v := range values {
			primary.rep.ClientWrite(objName(i), v, nil)
		}
	})
	// Steps before the last write completed framed fewer objects: count
	// from the moment the backup holds them all.
	waitConverged(t, backup, values, timeout)
	onLoop(backup.clk, func() bool { tap.reset(); return true })
	time.Sleep(200 * time.Millisecond)
	c := onLoop(backup.clk, func() frameTap { return *tap })
	stop()
	t.Logf("%d updates in %d datagrams, %d of them frames", c.updates, c.datagrams, c.frames)
	if c.frames == 0 || c.updates <= c.datagrams {
		t.Fatalf("%d updates in %d datagrams (%d frames): the pump does not frame", c.updates, c.datagrams, c.frames)
	}
	if c.twice != 0 {
		t.Fatalf("%d frames carried an object twice", c.twice)
	}
	if c.whole != c.frames {
		t.Fatalf("%d of %d frames carried all %d objects", c.whole, c.frames, objects)
	}
}
