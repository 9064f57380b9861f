package core

import (
	"testing"
	"time"

	"rtpb/internal/netsim"
)

// TestZombiePrimaryIsFenced reproduces the split-brain hazard the epoch
// mechanism exists for: the original primary is only *partitioned*, not
// crashed; the backup is promoted (epoch 2) elsewhere; when the partition
// heals, the zombie's epoch-1 updates must not overwrite state on a
// backup that has already heard from epoch 2.
func TestZombiePrimaryIsFenced(t *testing.T) {
	f, hs := fabric(t, 77, netsim.LinkParams{Delay: ms(2)}, "zombie", "newprimary", "backup")
	clk, net, z, n, b := f.Clock, f.Net, hs[0], hs[1], hs[2]

	zombie, err := NewPrimary(Config{Clock: clk, Port: z.Port, Peer: b.Addr, Ell: ms(5)})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := NewBackup(Config{Clock: clk, Port: b.Port, Peer: z.Addr, Ell: ms(5)})
	if err != nil {
		t.Fatal(err)
	}
	if d := zombie.Register(spec("x", ms(40), ms(50), ms(250))); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	zombie.ClientWrite("x", []byte("old-world"), nil)
	clk.RunFor(300 * time.Millisecond)
	if v, _, _ := backup.Value("x"); string(v) != "old-world" {
		t.Fatalf("warmup failed: %q", v)
	}

	// The zombie is partitioned away; a new primary at epoch 2 takes
	// over serving the backup.
	net.Partition("zombie", "backup")
	newPrimary, err := NewPrimary(Config{Clock: clk, Port: n.Port, Peer: b.Addr, Ell: ms(5)})
	if err != nil {
		t.Fatal(err)
	}
	newPrimary.SetEpoch(2)
	if d := newPrimary.Register(spec("x", ms(40), ms(50), ms(250))); !d.Accepted {
		t.Fatalf("new primary rejected: %s", d.Reason)
	}
	newPrimary.ClientWrite("x", []byte("new-world"), nil)
	clk.RunFor(300 * time.Millisecond)
	if v, _, _ := backup.Value("x"); string(v) != "new-world" {
		t.Fatalf("backup not following new primary: %q", v)
	}
	if backup.Epoch() != 2 {
		t.Fatalf("backup epoch = %d, want 2", backup.Epoch())
	}

	// The partition heals and the zombie keeps writing and transmitting
	// at epoch 1: the backup must ignore all of it.
	net.Heal("zombie", "backup")
	zombie.ClientWrite("x", []byte("stale-overwrite"), nil)
	clk.RunFor(500 * time.Millisecond)
	if v, _, _ := backup.Value("x"); string(v) != "new-world" {
		t.Fatalf("zombie primary overwrote promoted state: %q", v)
	}

	// A zombie anti-entropy exchange is fenced too.
	zombie.ResyncPeers()
	clk.RunFor(100 * time.Millisecond)
	if v, _, _ := backup.Value("x"); string(v) != "new-world" {
		t.Fatalf("zombie state transfer overwrote promoted state: %q", v)
	}
}

// TestUnstampedEpochZeroAccepted documents the compatibility rule: epoch
// 0 means "unstamped" and is always accepted.
func TestUnstampedEpochZeroAccepted(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 41, link: netsim.LinkParams{Delay: ms(2)}})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))
	c.primary.SetEpoch(0) // pre-epoch wire peers stamp 0
	c.primary.ClientWrite("x", []byte("v"), nil)
	c.clk.RunFor(300 * time.Millisecond)
	if v, _, ok := c.backup.Value("x"); !ok || string(v) != "v" {
		t.Fatalf("unstamped update rejected: %q ok=%v", v, ok)
	}
}
