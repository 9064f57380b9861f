package ctl

import (
	"encoding/base64"
	"strconv"
	"strings"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/gateway"
)

// startGateway brings up a real-clock primary fronted by a gateway and
// its control server, returning a connected client.
func startGateway(t *testing.T) (*Client, func()) {
	t.Helper()
	return startLive(t, nil, func(clk *clock.RealClock, p *core.Replica) (liveServer, error) {
		gw, err := gateway.New(gateway.Config{
			Clock:           clk,
			Backend:         gateway.ReplicaBackend{Primary: p},
			BroadcastPeriod: 25 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		return NewGatewayServer(clk, gw, "127.0.0.1:0")
	})
}

// TestGatewayControlSubscribeStream drives the full gateway surface over
// TCP: placement, write, certificate read, group bind, subscription,
// and the asynchronous EVENT stream with its staleness certificates.
func TestGatewayControlSubscribeStream(t *testing.T) {
	cl, shutdown := startGateway(t)
	defer shutdown()

	reply, err := cl.Do("PLACE alt 64 40ms 50ms 200ms")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "OK shard 0 ") {
		t.Fatalf("PLACE reply = %q", reply)
	}

	if reply, err = cl.Write("alt", []byte("9000 ft")); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "OK ") {
		t.Fatalf("WRITE reply = %q", reply)
	}

	if reply, err = cl.Do("READ alt"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OK ", "age=", "delta=200ms", "mode=normal"} {
		if !strings.Contains(reply, want) {
			t.Fatalf("READ reply = %q, missing %q", reply, want)
		}
	}

	if reply, err = cl.Do("BIND cockpit alt"); err != nil {
		t.Fatal(err)
	}
	if reply != "OK cockpit objects=1" {
		t.Fatalf("BIND reply = %q", reply)
	}

	if reply, err = cl.Do("SUB cockpit"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(reply, "OK cockpit members=1") {
		t.Fatalf("SUB reply = %q", reply)
	}

	// The broadcast tick must now stream EVENT frames with monotone
	// sequence numbers and certificate fields.
	var lastSeq uint64
	for i := 0; i < 3; i++ {
		line, err := cl.ReadLine()
		if err != nil {
			t.Fatalf("EVENT read %d: %v", i, err)
		}
		fields := strings.Fields(line)
		if len(fields) < 6 || fields[0] != "EVENT" || fields[1] != "cockpit" || fields[2] != "alt" {
			t.Fatalf("EVENT line = %q", line)
		}
		seq, err := strconv.ParseUint(fields[3], 10, 64)
		if err != nil || seq <= lastSeq {
			t.Fatalf("EVENT seq %q after %d (err=%v)", fields[3], lastSeq, err)
		}
		lastSeq = seq
		if value, err := base64.StdEncoding.DecodeString(fields[4]); err != nil || string(value) != "9000 ft" {
			t.Fatalf("EVENT value = %q err=%v", value, err)
		}
		for _, want := range []string{"age=", "delta=200ms", "mode=normal"} {
			if !strings.Contains(line, want) {
				t.Fatalf("EVENT line = %q, missing %q", line, want)
			}
		}
	}

	// A second connection sees the session and group tables; the
	// streaming connection's session counts as one member.
	cl2, err := Dial(cl.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if reply, err = cl2.Do("SESSIONS"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OK sessions=1", "mode=normal", "connects=1"} {
		if !strings.Contains(reply, want) {
			t.Fatalf("SESSIONS reply = %q, missing %q", reply, want)
		}
	}
	if reply, err = cl2.Do("GROUPS"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OK groups=1", "cockpit members=1 objects=1"} {
		if !strings.Contains(reply, want) {
			t.Fatalf("GROUPS reply = %q, missing %q", reply, want)
		}
	}
}

// TestGatewayControlSessionTeardown pins the OnClose path: a dropped
// subscriber connection unbinds its session from the gateway.
func TestGatewayControlSessionTeardown(t *testing.T) {
	cl, shutdown := startGateway(t)
	defer shutdown()

	if _, err := cl.Do("PLACE alt 64 40ms 50ms 200ms"); err != nil {
		t.Fatal(err)
	}
	addr := cl.conn.RemoteAddr().String()
	sub, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := sub.Do("SUB cockpit"); err != nil || !strings.HasPrefix(reply, "OK") {
		t.Fatalf("SUB reply = %q err=%v", reply, err)
	}
	if reply, err := cl.Do("SESSIONS"); err != nil || !strings.Contains(reply, "sessions=1") {
		t.Fatalf("SESSIONS before teardown = %q err=%v", reply, err)
	}
	sub.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		reply, err := cl.Do("SESSIONS")
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(reply, "sessions=0") && strings.Contains(reply, "closed=1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session never torn down: %q", reply)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
