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
)

// liveNode is one replica wired the way cmd/rtpbd wires it: a RealClock
// loop, a loopback UDP socket, the NewStack graph, production defaults.
type liveNode struct {
	clk *clock.RealClock
	udp *netsim.UDPTransport
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
	return &liveNode{clk: clk, udp: udp}
}

func (n *liveNode) start(t *testing.T, role core.Role, peer *liveNode, mode rtpb.SchedulingMode) {
	t.Helper()
	port, err := rtpb.NewStack(n.udp)
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
	primary, backup := newLiveNode(t), newLiveNode(t)
	stopped := false
	stop := func() {
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
	defer stop()
	backup.start(t, core.RoleBackup, primary, rtpb.ScheduleCompressed)
	primary.start(t, core.RolePrimary, backup, rtpb.ScheduleCompressed)

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
	name := func(i int) string { return fmt.Sprintf("obj%d", i) }
	sends := 0
	if reason := onLoop(primary.clk, func() string {
		primary.rep.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
		for i := 0; i < objects; i++ {
			if d := primary.rep.Register(core.ObjectSpec{
				Name:         name(i),
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
			primary.rep.ClientWrite(name(i), value, func(lat time.Duration, err error) {
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

	converged := func() bool {
		return onLoop(backup.clk, func() bool {
			for i := 0; i < objects; i++ {
				if got, _, ok := backup.rep.Value(name(i)); !ok || !bytes.Equal(got, last[i]) {
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
