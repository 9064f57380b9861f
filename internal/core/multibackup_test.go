package core

import (
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
	"rtpb/internal/topo"
	"rtpb/internal/xkernel"
)

// multiCluster is a primary with several backups on one simulated fabric.
type multiCluster struct {
	clk     *clock.SimClock
	fabric  *topo.Fabric
	primary *Replica
	backups []*Replica
	eps     []*netsim.Endpoint
}

func newMultiCluster(t *testing.T, nBackups int, mutateP func(*Config)) *multiCluster {
	t.Helper()
	names := []string{"primary"}
	for i := 0; i < nBackups; i++ {
		names = append(names, "backup"+string(rune('A'+i)))
	}
	f, hs := fabric(t, 91, netsim.LinkParams{Delay: ms(2)}, names...)
	var peers []xkernel.Addr
	var eps []*netsim.Endpoint
	for _, h := range hs[1:] {
		peers, eps = append(peers, h.Addr), append(eps, h.EP)
	}
	pCfg := Config{Clock: f.Clock, Port: hs[0].Port, Peers: peers, Ell: ms(5)}
	if mutateP != nil {
		mutateP(&pCfg)
	}
	primary, err := NewPrimary(pCfg)
	if err != nil {
		t.Fatal(err)
	}
	mc := &multiCluster{clk: f.Clock, fabric: f, primary: primary, eps: eps}
	for _, h := range hs[1:] {
		b, err := NewBackup(Config{Clock: f.Clock, Port: h.Port, Peer: hs[0].Addr, Ell: ms(5)})
		if err != nil {
			t.Fatal(err)
		}
		mc.backups = append(mc.backups, b)
	}
	return mc
}

func TestMultiBackupBroadcastReplication(t *testing.T) {
	mc := newMultiCluster(t, 3, nil)
	if d := mc.primary.Register(spec("x", ms(40), ms(50), ms(250))); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	mc.clk.RunFor(ms(50))
	w := clock.NewPeriodic(mc.clk, 0, ms(40), func() {
		mc.primary.ClientWrite("x", []byte("v"), nil)
	})
	mc.clk.RunFor(time.Second)
	w.Stop()
	for i, b := range mc.backups {
		if v, _, ok := b.Value("x"); !ok || string(v) != "v" {
			t.Fatalf("backup %d missing value: %q ok=%v", i, v, ok)
		}
	}
	if got := len(mc.primary.Peers()); got != 3 {
		t.Fatalf("Peers() = %d, want 3", got)
	}
}

func TestMultiBackupSurvivesOnePeerDeath(t *testing.T) {
	mc := newMultiCluster(t, 2, nil)
	if d := mc.primary.Register(spec("x", ms(40), ms(50), ms(250))); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	mc.clk.RunFor(ms(50))
	w := clock.NewPeriodic(mc.clk, 0, ms(40), func() {
		mc.primary.ClientWrite("x", []byte("v"), nil)
	})
	defer w.Stop()
	mc.clk.RunFor(500 * time.Millisecond)

	// Backup A dies; the primary is told and keeps replicating to B.
	mc.backups[0].Stop()
	mc.eps[0].SetDown(true)
	mc.primary.SetPeerAlive("backupA:7000", false)
	if st := mc.primary.PeerStates(); st[0].Addr != "backupA:7000" || st[0].Alive {
		t.Fatalf("peer A not marked dead: %+v", st)
	}
	if !mc.primary.BackupAlive() {
		t.Fatal("primary believes all backups dead with B alive")
	}
	_, verBefore, _ := mc.backups[1].Value("x")
	mc.clk.RunFor(500 * time.Millisecond)
	_, verAfter, _ := mc.backups[1].Value("x")
	if !verAfter.After(verBefore) {
		t.Fatal("surviving backup stopped receiving updates")
	}
}

func TestMultiBackupPeerRecoveryGetsStateTransfer(t *testing.T) {
	mc := newMultiCluster(t, 2, nil)
	if d := mc.primary.Register(spec("x", ms(40), ms(50), ms(250))); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	mc.clk.RunFor(ms(50))
	mc.primary.SetPeerAlive("backupA:7000", false)
	mc.primary.ClientWrite("x", []byte("while-A-dead"), nil)
	mc.clk.RunFor(200 * time.Millisecond)
	if _, _, ok := mc.backups[0].Value("x"); ok {
		t.Fatal("dead-marked peer received updates")
	}
	transfers := 0
	mc.backups[0].OnStateTransfer = func(uint32, int) { transfers++ }
	mc.primary.SetPeerAlive("backupA:7000", true)
	mc.clk.RunFor(100 * time.Millisecond)
	if transfers != 1 {
		t.Fatalf("state transfers to recovered peer = %d, want 1", transfers)
	}
	if v, _, ok := mc.backups[0].Value("x"); !ok || string(v) != "while-A-dead" {
		t.Fatalf("recovered peer state = %q ok=%v", v, ok)
	}
}

func TestAddPeerMidRun(t *testing.T) {
	mc := newMultiCluster(t, 1, nil)
	if d := mc.primary.Register(spec("x", ms(40), ms(50), ms(250))); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	mc.primary.ClientWrite("x", []byte("pre-join"), nil)
	mc.clk.RunFor(200 * time.Millisecond)

	// A third host joins as an extra backup.
	c, err := mc.fabric.Host("backupC")
	if err != nil {
		t.Fatal(err)
	}
	extra, err := NewBackup(Config{Clock: mc.clk, Port: c.Port, Peer: "primary:7000", Ell: ms(5)})
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.primary.AddPeer(c.Addr); err != nil {
		t.Fatal(err)
	}
	mc.clk.RunFor(100 * time.Millisecond)
	if v, _, ok := extra.Value("x"); !ok || string(v) != "pre-join" {
		t.Fatalf("joined peer missing state transfer: %q ok=%v", v, ok)
	}
	if len(extra.Specs()) != 1 {
		t.Fatalf("joined peer has %d specs, want 1", len(extra.Specs()))
	}
	// Future updates reach it too.
	mc.primary.ClientWrite("x", []byte("post-join"), nil)
	mc.clk.RunFor(300 * time.Millisecond)
	if v, _, _ := extra.Value("x"); string(v) != "post-join" {
		t.Fatalf("joined peer not receiving updates: %q", v)
	}
	// Duplicate joins are rejected.
	if err := mc.primary.AddPeer("backupC:7000"); err == nil {
		t.Fatal("duplicate AddPeer succeeded")
	}
}

func TestRemovePeerStopsTraffic(t *testing.T) {
	mc := newMultiCluster(t, 2, nil)
	if d := mc.primary.Register(spec("x", ms(40), ms(50), ms(250))); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	mc.clk.RunFor(ms(50))
	mc.primary.RemovePeer("backupA:7000")
	if got := len(mc.primary.Peers()); got != 1 {
		t.Fatalf("Peers() = %d after removal, want 1", got)
	}
	mc.primary.ClientWrite("x", []byte("v"), nil)
	mc.clk.RunFor(300 * time.Millisecond)
	if _, _, ok := mc.backups[0].Value("x"); ok {
		t.Fatal("removed peer received updates")
	}
	if v, _, ok := mc.backups[1].Value("x"); !ok || string(v) != "v" {
		t.Fatalf("remaining peer missing updates: %q ok=%v", v, ok)
	}
}

func TestMultiBackupAdmissionChargesPerReplica(t *testing.T) {
	count := func(nBackups int) int {
		mc := newMultiCluster(t, nBackups, nil)
		admitted := 0
		for i := 0; i < 100; i++ {
			name := "o" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			if d := mc.primary.Register(spec(name, ms(20), ms(25), ms(60))); d.Accepted {
				admitted++
			}
		}
		return admitted
	}
	one := count(1)
	three := count(3)
	if three >= one {
		t.Fatalf("3-backup capacity (%d) not below 1-backup capacity (%d)", three, one)
	}
}

func TestPerPeerHeartbeats(t *testing.T) {
	mc := newMultiCluster(t, 2, nil)
	seqA, err := mc.primary.SendPingTo("backupA:7000")
	if err != nil {
		t.Fatal(err)
	}
	seqB, err := mc.primary.SendPingTo("backupB:7000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.primary.SendPingTo("ghost:7000"); err == nil {
		t.Fatal("ping to unknown peer succeeded")
	}
	// An ack is matched to the ping outstanding on the peer it came
	// from, which it then clears.
	sent := map[xkernel.Addr]uint64{"backupA:7000": seqA, "backupB:7000": seqB}
	for addr, seq := range sent {
		if _, waiting := mc.primary.peerByAddr(addr).pingSent[seq]; !waiting {
			t.Fatalf("%s: ping %d not outstanding after sending", addr, seq)
		}
	}
	mc.clk.RunFor(ms(20))
	for addr, seq := range sent {
		if _, waiting := mc.primary.peerByAddr(addr).pingSent[seq]; waiting {
			t.Fatalf("%s: ping %d still outstanding, its ack never matched", addr, seq)
		}
	}
}
