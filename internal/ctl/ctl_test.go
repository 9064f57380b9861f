package ctl

import (
	"encoding/base64"
	"fmt"
	"strings"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/durable"
	"rtpb/internal/netsim"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// startPrimary brings up a real-clock primary over real UDP plus its
// control server, returning a connected client.
func startPrimary(t *testing.T) (*Client, func()) {
	return startPrimaryDurable(t, nil)
}

// startPrimaryDurable is startPrimary with an optional durable store
// attached to the primary (nil runs without persistence).
func startPrimaryDurable(t *testing.T, dlog *durable.Log) (*Client, func()) {
	t.Helper()
	return startPrimaryWith(t, func(cfg *core.Config) { cfg.Durable = dlog })
}

// startPrimaryWith is startPrimary with a config mutator applied before
// the replica starts.
func startPrimaryWith(t *testing.T, mutate func(*core.Config)) (*Client, func()) {
	t.Helper()
	return startLive(t, mutate, func(clk *clock.RealClock, p *core.Replica) (liveServer, error) {
		return NewServer(clk, p, "127.0.0.1:0")
	})
}

// liveServer is the control server a test drives.
type liveServer interface {
	Addr() string
	Close() error
}

// startLive brings up a real-clock primary over real UDP (no peer: the
// control interface works standalone) and, on the clock's executor, the
// control server serve builds over it, returning a connected client and
// a shutdown func.
func startLive(t *testing.T, mutate func(*core.Config), serve func(*clock.RealClock, *core.Replica) (liveServer, error)) (*Client, func()) {
	t.Helper()
	clk := clock.NewReal()
	tr, err := netsim.NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		clk.Stop()
		t.Skipf("UDP unavailable: %v", err)
	}
	port, err := xkernel.NewStack(tr, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	var srv liveServer
	errCh := make(chan error, 1)
	clk.Post(func() {
		cfg := core.Config{Clock: clk, Port: port, Ell: 5 * time.Millisecond}
		if mutate != nil {
			mutate(&cfg)
		}
		p, err := core.NewPrimary(cfg)
		if err == nil {
			srv, err = serve(clk, p)
		}
		errCh <- err
	})
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return cl, func() {
		cl.Close()
		srv.Close()
		tr.Close()
		clk.Stop()
	}
}

func TestControlRegisterWriteReadStatus(t *testing.T) {
	cl, shutdown := startPrimary(t)
	defer shutdown()

	reply, err := cl.Do("REGISTER alt 64 40ms 50ms 200ms")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("REGISTER reply = %q", reply)
	}

	reply, err = cl.Write("alt", []byte("9000 ft"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("WRITE reply = %q", reply)
	}

	reply, err = cl.Do("READ alt")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(reply)
	if len(fields) < 3 || fields[0] != "OK" {
		t.Fatalf("READ reply = %q", reply)
	}
	value, err := base64.StdEncoding.DecodeString(fields[1])
	if err != nil || string(value) != "9000 ft" {
		t.Fatalf("READ value = %q err=%v", value, err)
	}
	// The reply carries a staleness certificate: age at the read and the
	// mode-effective admitted bound it is certified against.
	for _, want := range []string{"age=", "delta=", "mode=normal"} {
		if !strings.Contains(reply, want) {
			t.Fatalf("READ reply = %q, missing certificate field %q", reply, want)
		}
	}

	reply, err = cl.Do("STATUS")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"role=primary", "objects=1", "transitions=0"} {
		if !strings.Contains(reply, want) {
			t.Fatalf("STATUS reply = %q, missing %q", reply, want)
		}
	}
}

func TestControlRejectionAndErrors(t *testing.T) {
	cl, shutdown := startPrimary(t)
	defer shutdown()

	cases := []struct {
		cmd  string
		want string
	}{
		{"REGISTER bad 64 60ms 50ms 200ms", "REJECT"}, // p > δP
		{fmt.Sprintf("REGISTER big %d 40ms 50ms 200ms", wire.MaxPayload+1), "REJECT"},
		{"REGISTER x 64 40ms", "ERR usage"},
		{"REGISTER x notanum 40ms 50ms 200ms", "ERR bad size"},
		{"REGISTER x 64 40ms 50ms bogus", "ERR bad duration"},
		{"WRITE ghost aGk=", "ERR"},
		{"WRITE ghost not-base64!", "ERR bad base64"},
		{"READ ghost", "ERR not found"},
		{"RELATE a b 10ms", "REJECT"},
		{"FROB x", "ERR unknown command"},
	}
	for _, tc := range cases {
		reply, err := cl.Do(tc.cmd)
		if err != nil {
			t.Fatalf("%q: %v", tc.cmd, err)
		}
		if !strings.HasPrefix(reply, tc.want) {
			t.Fatalf("%q reply = %q, want prefix %q", tc.cmd, reply, tc.want)
		}
	}
}

// A value no backup could decode is refused over the control protocol:
// WRITE replies ERR and installs nothing.
func TestControlRefusesOversizedValues(t *testing.T) {
	cl, shutdown := startPrimary(t)
	defer shutdown()

	reply, err := cl.Do("REGISTER alt 64 40ms 50ms 200ms")
	if err != nil || !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("REGISTER = %q, %v", reply, err)
	}
	reply, err = cl.Write("alt", make([]byte, wire.MaxPayload+1))
	if err != nil || !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("WRITE of %d bytes = %q, %v", wire.MaxPayload+1, reply, err)
	}
	if reply, err = cl.Do("READ alt"); err != nil || reply != "ERR not found" {
		t.Fatalf("READ after the refused write = %q, %v", reply, err)
	}
}

func TestControlRelate(t *testing.T) {
	cl, shutdown := startPrimary(t)
	defer shutdown()
	for _, name := range []string{"a", "b"} {
		if reply, _ := cl.Do("REGISTER " + name + " 8 20ms 40ms 400ms"); !strings.HasPrefix(reply, "OK") {
			t.Fatalf("register %s: %q", name, reply)
		}
	}
	reply, err := cl.Do("RELATE a b 60ms")
	if err != nil || reply != "OK" {
		t.Fatalf("RELATE reply = %q err=%v", reply, err)
	}
}

func TestControlMultipleClients(t *testing.T) {
	cl1, shutdown := startPrimary(t)
	defer shutdown()
	if reply, _ := cl1.Do("REGISTER shared 8 40ms 50ms 200ms"); !strings.HasPrefix(reply, "OK") {
		t.Fatalf("register: %q", reply)
	}
	// A second client sees the same object table.
	cl2, err := Dial(strings.TrimPrefix(cl1.conn.RemoteAddr().String(), ""))
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	reply, err := cl2.Do("STATUS")
	if err != nil || !strings.Contains(reply, "objects=1") {
		t.Fatalf("second client STATUS = %q err=%v", reply, err)
	}
}

// TestControlLogstatSnapshot covers the durable-store verbs: without
// persistence both report a clean error; with a store attached LOGSTAT
// reports the segment/snapshot inventory and recovery source, and
// SNAPSHOT forces a snapshot the next LOGSTAT reflects.
func TestControlLogstatSnapshot(t *testing.T) {
	cl, shutdown := startPrimary(t)
	for _, cmd := range []string{"LOGSTAT", "SNAPSHOT"} {
		reply, err := cl.Do(cmd)
		if err != nil || reply != "ERR durable persistence not enabled" {
			t.Fatalf("%s without a store = %q err=%v", cmd, reply, err)
		}
	}
	shutdown()

	dlog, err := durable.Open(durable.Config{Dir: t.TempDir(), Sync: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dlog.Close()
	cl, shutdown = startPrimaryDurable(t, dlog)
	defer shutdown()
	if reply, _ := cl.Do("REGISTER alt 64 40ms 50ms 200ms"); !strings.HasPrefix(reply, "OK") {
		t.Fatalf("register: %q", reply)
	}
	if reply, _ := cl.Write("alt", []byte("9000 ft")); !strings.HasPrefix(reply, "OK") {
		t.Fatalf("write: %q", reply)
	}
	reply, err := cl.Do("LOGSTAT")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OK segments=", "source=network", "restored=0", "dropped=0"} {
		if !strings.Contains(reply, want) {
			t.Fatalf("LOGSTAT reply = %q, missing %q", reply, want)
		}
	}
	reply, err = cl.Do("SNAPSHOT")
	if err != nil || !strings.HasPrefix(reply, "OK snapshots=") {
		t.Fatalf("SNAPSHOT reply = %q err=%v", reply, err)
	}
	reply, err = cl.Do("LOGSTAT")
	if err != nil || strings.Contains(reply, "snapshots=0") {
		t.Fatalf("LOGSTAT after SNAPSHOT = %q err=%v", reply, err)
	}
}

// TestControlClock covers the CLOCK verb: with probing disabled it
// reports sync=off; with probing enabled but no completed probe it
// reports an invalid estimate — never a fake zero offset.
func TestControlClock(t *testing.T) {
	cl, shutdown := startPrimary(t)
	reply, err := cl.Do("CLOCK")
	if err != nil || reply != "OK sync=off" {
		t.Fatalf("CLOCK with sync disabled = %q err=%v", reply, err)
	}
	shutdown()

	cl, shutdown = startPrimaryWith(t, func(cfg *core.Config) { cfg.ClockSync = true })
	defer shutdown()
	reply, err = cl.Do("CLOCK")
	if err != nil || reply != "OK sync=on valid=false accepted=0 rejected=0" {
		t.Fatalf("CLOCK with sync enabled but unprobed = %q err=%v", reply, err)
	}
}

func TestControlRepairAndRecruit(t *testing.T) {
	cl, shutdown := startPrimary(t)
	defer shutdown()

	// No peers attached yet: the repair view is empty.
	reply, err := cl.Do("REPAIR")
	if err != nil || reply != "OK synced=0 peers=0" {
		t.Fatalf("REPAIR reply = %q err=%v", reply, err)
	}

	// Recruiting a peer attaches it immediately; with nothing listening at
	// the address the exchange stays pending, which REPAIR reports.
	reply, err = cl.Do("RECRUIT 127.0.0.1:65000")
	if err != nil || reply != "OK 127.0.0.1:65000" {
		t.Fatalf("RECRUIT reply = %q err=%v", reply, err)
	}
	reply, err = cl.Do("REPAIR")
	if err != nil || !strings.Contains(reply, "peers=1") ||
		!strings.Contains(reply, "127.0.0.1:65000") ||
		!strings.Contains(reply, "syncing=true") {
		t.Fatalf("REPAIR after recruit = %q err=%v", reply, err)
	}

	// Recruiting the same address twice is an error, not a reset.
	reply, err = cl.Do("RECRUIT 127.0.0.1:65000")
	if err != nil || !strings.HasPrefix(reply, "ERR") {
		t.Fatalf("duplicate RECRUIT reply = %q err=%v", reply, err)
	}

	if reply, _ = cl.Do("RECRUIT"); !strings.HasPrefix(reply, "ERR usage") {
		t.Fatalf("RECRUIT arity reply = %q", reply)
	}
}
