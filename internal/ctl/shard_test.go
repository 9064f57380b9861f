package ctl

import (
	"encoding/base64"
	"strings"
	"testing"
	"time"

	"rtpb/internal/shard"
)

// startShardCluster builds a simulated 2-shard cluster and its control
// server. The cluster runs on a virtual clock, which is single-threaded
// by design, so the tests drive the verb handler directly (the TCP
// transport is the one the single-pair tests cover) and advance virtual
// time in between.
func startShardCluster(t *testing.T) (*shard.Cluster, *Server) {
	t.Helper()
	cluster, err := shard.NewCluster(shard.Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(cluster.Clock(), cluster, "127.0.0.1:0")
	if err != nil {
		cluster.Stop()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		cluster.Stop()
	})
	return cluster, srv
}

// do runs one command synchronously on the handler.
func do(t *testing.T, srv *Server, line string) string {
	t.Helper()
	var out string
	called := false
	srv.handle(nil, line, func(r string) { out, called = r, true })
	if !called {
		t.Fatalf("%q: no synchronous reply", line)
	}
	return out
}

func TestShardServerPlaceRouteShards(t *testing.T) {
	cluster, srv := startShardCluster(t)

	reply := do(t, srv, "PLACE counter 64 20ms 20ms 120ms")
	if !strings.HasPrefix(reply, "OK shard 0 ") {
		t.Fatalf("PLACE: %q", reply)
	}
	// REGISTER against the cluster is placement.
	reply = do(t, srv, "REGISTER gauge 64 20ms 20ms 120ms")
	if !strings.HasPrefix(reply, "OK shard ") {
		t.Fatalf("REGISTER: %q", reply)
	}

	reply = do(t, srv, "ROUTE counter")
	if !strings.HasPrefix(reply, "OK shard 0 primary shard0-p:") || !strings.Contains(reply, "epoch 1") {
		t.Fatalf("ROUTE: %q", reply)
	}
	if reply = do(t, srv, "ROUTE ghost"); reply != "ERR not placed" {
		t.Fatalf("ROUTE ghost: %q", reply)
	}

	reply = do(t, srv, "SHARDS")
	if !strings.HasPrefix(reply, "OK shards=2 | 0 primary=shard0-p:") {
		t.Fatalf("SHARDS: %q", reply)
	}
	if !strings.Contains(reply, "| 1 primary=shard1-p:") {
		t.Fatalf("SHARDS missing shard 1: %q", reply)
	}

	// A write forwards to the owning shard's primary; the reply lands
	// once virtual time covers the round trip.
	payload := base64.StdEncoding.EncodeToString([]byte("v1"))
	var writeReply string
	srv.handle(nil, "WRITE counter "+payload, func(r string) { writeReply = r })
	cluster.RunFor(100 * time.Millisecond)
	if !strings.HasPrefix(writeReply, "OK ") {
		t.Fatalf("WRITE: %q", writeReply)
	}

	reply = do(t, srv, "READ counter")
	want := "OK " + payload + " "
	if !strings.HasPrefix(reply, want) {
		t.Fatalf("READ: %q, want prefix %q", reply, want)
	}
}

func TestShardServerMigrate(t *testing.T) {
	cluster, srv := startShardCluster(t)

	do(t, srv, "PLACE mig 64 20ms 20ms 120ms")
	payload := base64.StdEncoding.EncodeToString([]byte("before"))
	srv.handle(nil, "WRITE mig "+payload, func(string) {})
	cluster.RunFor(100 * time.Millisecond)

	if reply := do(t, srv, "MIGRATE mig 1"); reply != "OK mig shard 1" {
		t.Fatalf("MIGRATE: %q", reply)
	}
	if reply := do(t, srv, "ROUTE mig"); !strings.HasPrefix(reply, "OK shard 1 primary shard1-p:") {
		t.Fatalf("ROUTE after migrate: %q", reply)
	}
	// The value moved with the object.
	if reply := do(t, srv, "READ mig"); !strings.HasPrefix(reply, "OK "+payload+" ") {
		t.Fatalf("READ after migrate: %q", reply)
	}
	if reply := do(t, srv, "MIGRATE ghost 1"); !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("MIGRATE ghost: %q", reply)
	}
	if reply := do(t, srv, "MIGRATE mig 9"); !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("MIGRATE out of range: %q", reply)
	}
}

func TestShardServerRejectsAndErrors(t *testing.T) {
	_, srv := startShardCluster(t)

	// An impossible constraint is rejected with a reason, like REGISTER
	// against a single pair.
	reply := do(t, srv, "PLACE hot 64 1ms 1ms 2ms")
	if !strings.HasPrefix(reply, "REJECT ") {
		t.Fatalf("PLACE impossible: %q", reply)
	}
	if reply := do(t, srv, "WRITE ghost "+base64.StdEncoding.EncodeToString([]byte("x"))); !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("WRITE unplaced: %q", reply)
	}
	if reply := do(t, srv, "READ ghost"); reply != "ERR not found" {
		t.Fatalf("READ unplaced: %q", reply)
	}
	if reply := do(t, srv, "BOGUS"); !strings.HasPrefix(reply, "ERR unknown command") {
		t.Fatalf("BOGUS: %q", reply)
	}
	if reply := do(t, srv, "PLACE short 64"); !strings.HasPrefix(reply, "ERR usage") {
		t.Fatalf("PLACE short: %q", reply)
	}
}

func TestShardServerDuplicatePlace(t *testing.T) {
	_, srv := startShardCluster(t)
	do(t, srv, "PLACE dup 64 20ms 20ms 120ms")
	reply := do(t, srv, "PLACE dup 64 20ms 20ms 120ms")
	if !strings.HasPrefix(reply, "REJECT ") {
		t.Fatalf("duplicate PLACE: %q", reply)
	}
	if !strings.Contains(reply, "already placed") {
		t.Fatalf("duplicate PLACE reason: %q", reply)
	}
}
