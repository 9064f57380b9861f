package ctl

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/gateway"
	"rtpb/internal/netsim"
	"rtpb/internal/shard"
	"rtpb/internal/topo"
	"rtpb/internal/xkernel"
)

var updateReplies = flag.Bool("update", false, "rewrite testdata/replies.golden")

// step is how much virtual time runs after each line, long enough for a
// WRITE's round trip and a few gateway broadcast ticks.
const step = 100 * time.Millisecond

// b64 is base64("9000 ft").
const b64 = "OTAwMCBmdA=="

// surface is one control server driven line by line on a virtual clock.
type surface struct {
	name string
	clk  *clock.SimClock
	srv  *Server
	conn *lineConn // the connection every line arrives on; nil if none
	// events, when set, reads the EVENT lines pushed during a step.
	events func() []string
	script []string
}

// TestRepliesPinned drives every verb of each control surface — a
// primary, its backup and an observer, and a gateway over a sharded
// cluster with a subscribed connection — through the verb
// handler on virtual clocks, malformed lines included, and compares the
// transcript with testdata/replies.golden (-update rewrites it).
func TestRepliesPinned(t *testing.T) {
	var out bytes.Buffer
	for _, s := range surfaces(t) {
		fmt.Fprintf(&out, "# %s\n", s.name)
		for _, line := range s.script {
			var replies []string
			s.srv.handle(s.conn, line, func(r string) { replies = append(replies, r) })
			s.clk.RunFor(step)
			fmt.Fprintf(&out, "> %s\n", line)
			if len(replies) == 0 {
				fmt.Fprintln(&out, "<no reply>")
			}
			for _, r := range replies {
				fmt.Fprintf(&out, "< %s\n", r)
			}
			if s.events != nil {
				for _, e := range s.events() {
					fmt.Fprintf(&out, "< %s\n", e)
				}
			}
		}
	}
	path := filepath.Join("testdata", "replies.golden")
	if *updateReplies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if !bytes.Equal(got[i], wantLines[i]) {
				t.Fatalf("replies differ from %s at line %d:\n got  %s\n want %s", path, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("replies differ from %s: %d lines, want %d", path, len(got), len(wantLines))
	}
}

// surfaces builds the deployments and their scripts.
func surfaces(t *testing.T) []surface {
	return append(replicaSurfaces(t), gatewaySurface(t))
}

// replicaSurfaces serves a topo primary, its backup and an observer
// subscribed to the primary, each on its own replica-verb server.
func replicaSurfaces(t *testing.T) []surface {
	t.Helper()
	f, hs, err := topo.Build(1, netsim.LinkParams{Delay: time.Millisecond}, "primary", "backup", "observer")
	if err != nil {
		t.Fatal(err)
	}
	p, b, o := hs[0], hs[1], hs[2]
	cfg := func(h *topo.Host) core.Config {
		return core.Config{Clock: f.Clock, Port: h.Port, Ell: 5 * time.Millisecond}
	}
	pc, bc, oc := cfg(p), cfg(b), cfg(o)
	pc.Peers = []xkernel.Addr{b.Addr}
	bc.Peer, oc.Peer, oc.ClockSync = p.Addr, p.Addr, true
	primary, err := core.NewPrimary(pc)
	if err != nil {
		t.Fatal(err)
	}
	backup, err := core.NewBackup(bc)
	if err != nil {
		t.Fatal(err)
	}
	observer, err := core.NewReplica(oc, core.RoleObserver)
	if err != nil {
		t.Fatal(err)
	}
	observer.Subscribe(50 * time.Millisecond)
	t.Cleanup(func() {
		observer.Stop()
		backup.Stop()
		primary.Stop()
	})
	serve := func(r *core.Replica) *Server {
		srv, err := NewServer(f.Clock, r, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	return []surface{
		{name: "primary", clk: f.Clock, srv: serve(primary), script: []string{
			"REGISTER alt 64 40ms 50ms 200ms",
			"REGISTER gauge 8 20ms 40ms 400ms",
			"register lower 8 20ms 40ms 400ms",
			"REGISTER alt 64 40ms 50ms 200ms",
			"REGISTER hot 64 1ms 1ms 2ms",
			"REGISTER big 64 1ms 50ms 200ms",
			"REGISTER x 64 40ms",
			"REGISTER x 64 40ms 50ms 200ms extra",
			"REGISTER x notanum 40ms 50ms 200ms",
			"REGISTER x 64 40ms 50ms bogus",
			"RELATE alt gauge 60ms",
			"RELATE alt gauge",
			"RELATE alt gauge 60ms extra",
			"RELATE alt gauge soon",
			"RELATE alt ghost 60ms",
			"WRITE alt " + b64,
			"write gauge " + b64,
			"WRITE alt",
			"WRITE alt " + b64 + " extra",
			"WRITE alt not-base64!",
			"WRITE ghost " + b64,
			"READ alt",
			"read gauge",
			"READ",
			"READ alt extra",
			"READ ghost",
			"STATUS",
			"STATUS x",
			"status",
			"REPAIR",
			"REPAIR x",
			"OBSERVERS",
			"OBSERVERS x",
			"RECRUIT",
			"RECRUIT spare:1 x",
			"RECRUIT spare:7000",
			"RECRUIT spare:7000",
			"REPAIR",
			"LOGSTAT",
			"LOGSTAT x",
			"SNAPSHOT",
			"CLOCK",
			"CLOCK x",
			"PLACE alt 64 40ms 50ms 200ms",
			"ROUTE alt",
			"SHARDS",
			"SUB cockpit",
			"FROB x",
			"frob",
		}},
		{name: "backup", clk: f.Clock, srv: serve(backup), script: []string{
			"STATUS",
			"READ alt",
			"WRITE alt " + b64,
			"REGISTER late 64 40ms 50ms 200ms",
			"REPAIR",
			"OBSERVERS",
			"CLOCK",
		}},
		{name: "observer", clk: f.Clock, srv: serve(observer), script: []string{
			"STATUS",
			"READ alt",
			"WRITE alt " + b64,
			"OBSERVERS",
			"CLOCK",
		}},
	}
}

// gatewaySurface serves a gateway over a two-shard cluster. Every line
// arrives on one net.Pipe connection, so SUB binds a session to it and
// the EVENT lines its broadcast ticks push are read back after each step.
func gatewaySurface(t *testing.T) surface {
	t.Helper()
	cluster, err := shard.NewCluster(shard.Config{Shards: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(gateway.Config{
		Clock:           cluster.Clock(),
		Backend:         gateway.ClusterBackend{Cluster: cluster},
		BroadcastPeriod: 25 * time.Millisecond,
	})
	if err != nil {
		cluster.Stop()
		t.Fatal(err)
	}
	srv, err := NewGatewayServer(cluster.Clock(), gw, "127.0.0.1:0")
	if err != nil {
		gw.Close()
		cluster.Stop()
		t.Fatal(err)
	}
	server, client := net.Pipe()
	conn := newLineConn(server)
	rd := bufio.NewReader(client)
	t.Cleanup(func() {
		client.Close()
		conn.teardown()
		cluster.RunFor(step)
		srv.Close()
		gw.Close()
		cluster.Stop()
	})
	delivered := gw.Stats().Delivered
	events := func() []string {
		var lines []string
		now := gw.Stats().Delivered
		for ; delivered < now; delivered++ {
			client.SetReadDeadline(time.Now().Add(5 * time.Second))
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("EVENT read: %v", err)
			}
			lines = append(lines, line[:len(line)-1])
		}
		return lines
	}
	return surface{name: "gateway", clk: cluster.Clock(), srv: srv, conn: conn, events: events, script: []string{
		"PLACE alt 64 40ms 50ms 200ms",
		"REGISTER speed 64 40ms 50ms 200ms",
		"PLACE x 64",
		"REGISTER x 64",
		"WRITE alt " + b64,
		"WRITE alt",
		"WRITE alt ???",
		"READ alt",
		"READ ghost",
		"READ",
		"BIND cockpit alt",
		"BIND cockpit",
		"BIND",
		"bind panel alt speed",
		"UNSUB cockpit",
		"SUB",
		"SUB cockpit extra",
		"SUB cockpit",
		"GROUPS",
		"GROUPS x",
		"SESSIONS",
		"SESSIONS x",
		"UNSUB",
		"UNSUB cockpit",
		"sub panel",
		"unsub panel",
		"STATUS",
		"SHARDS",
		"ROUTE alt",
		"FROB",
		"PLACE hot 64 1ms 1ms 2ms",
		"SUB cockpit",
		"SESSIONS",
	}}
}
