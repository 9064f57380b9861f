package main

import (
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"rtpb"
	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/ctl"
	"rtpb/internal/netsim"
	"rtpb/internal/xkernel"
)

func TestRunValidatesFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"missing role", []string{"-peer", "x:1"}, "-role"},
		{"bad role", []string{"-role", "observer", "-peer", "x:1"}, "-role"},
		{"missing peer", []string{"-role", "primary"}, "-peer"},
		{"empty peer", []string{"-role", "primary", "-peer", ""}, "peer"},
		{"backup multi peer", []string{"-role", "backup", "-peer", "x:1", "-peer", "y:1"}, "-peer"},
		{"bad mode", []string{"-role", "primary", "-peer", "x:1", "-mode", "turbo"}, "-mode"},
		{"takeover on primary", []string{"-role", "primary", "-peer", "x:1", "-takeover"}, "-takeover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestRunRejectsUnparseableFlags(t *testing.T) {
	if err := run([]string{"-ell", "soon"}); err == nil {
		t.Fatal("bad duration accepted")
	}
}

// freeAddr returns a loopback TCP address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// dial connects to addr, retrying while the listener comes up.
func dial(t *testing.T, addr string) *ctl.Client {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := ctl.Dial(addr)
		if err == nil {
			return c
		}
		if time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunReplicaServesControlAndGateway drives the daemon's control
// wiring: a primary with a ctl listener and a gateway listener answers
// each listener's own verbs, refuses the other's, and closes both when
// the signal arrives.
func TestRunReplicaServesControlAndGateway(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	transport, err := netsim.NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer transport.Close()
	port, err := xkernel.NewStack(transport, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Clock: clk,
		Port:  port,
		Ell:   5 * time.Millisecond,
		Peers: []rtpb.Addr{rtpb.Addr(fmt.Sprintf("127.0.0.1:9:%d", rtpb.RTPBPort))},
	}
	ctlAddr, gwAddr := freeAddr(t), freeAddr(t)
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- runReplica(clk, cfg, core.RolePrimary, ctlAddr, gwAddr, 50*time.Millisecond,
			false, false, false, sig, transport.LocalAddr(), nil)
	}()

	c, g := dial(t, ctlAddr), dial(t, gwAddr)
	defer c.Close()
	defer g.Close()
	for _, tc := range []struct {
		cl   *ctl.Client
		line string
		want string
	}{
		{c, "STATUS", "OK role=primary objects=0 "},
		{g, "SUB cockpit", "OK cockpit members=1"},
		{c, "SUB cockpit", "ERR unknown command SUB"},
		{g, "STATUS", "ERR unknown command STATUS"},
	} {
		reply, err := tc.cl.Do(tc.line)
		if err != nil || !strings.HasPrefix(reply, tc.want) {
			t.Fatalf("%s = %q (err %v), want prefix %q", tc.line, reply, err, tc.want)
		}
	}

	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runReplica did not return after the signal")
	}
	for _, cl := range []*ctl.Client{c, g} {
		if reply, err := cl.Do("STATUS"); err == nil {
			t.Fatalf("connection still served after shutdown: %q", reply)
		}
	}
	for _, addr := range []string{ctlAddr, gwAddr} {
		if cl, err := ctl.Dial(addr); err == nil {
			cl.Close()
			t.Fatalf("%s still accepts connections after shutdown", addr)
		}
	}
}
