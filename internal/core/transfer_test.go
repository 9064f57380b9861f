package core

import (
	"fmt"
	"testing"
	"time"

	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
)

// TestChunkedTransferResumesFromDigest is the repair cycle's resumability
// acceptance test: a join exchange is cut by a partition mid-stream, the
// primary abandons the in-flight chunk generation, and — once the link
// heals — the joiner's digest retry resumes the transfer from exactly
// what survived. Entries that landed before the cut must never be
// streamed again.
func TestChunkedTransferResumesFromDigest(t *testing.T) {
	const objects = 3*chunkEntries + 4
	c := newTestCluster(t, clusterOpts{
		seed:    11,
		link:    netsim.LinkParams{Delay: time.Millisecond},
		mutateP: func(cfg *Config) { cfg.Peer = "" }, // the backup is attached later, via AddPeer
	})
	defer c.primary.Stop()
	defer c.backup.Stop()

	names := make([]string, objects)
	for i := range names {
		names[i] = fmt.Sprintf("obj%02d", i)
		d := c.primary.Register(ObjectSpec{
			Name:         names[i],
			Size:         64,
			UpdatePeriod: 500 * time.Millisecond,
			Constraint: temporal.ExternalConstraint{
				DeltaP: 500 * time.Millisecond,
				DeltaB: 2 * time.Second,
			},
		})
		if !d.Accepted {
			t.Fatalf("register %q: %s", names[i], d.Reason)
		}
		c.primary.ClientWrite(names[i], []byte("val-"+names[i]), nil)
	}
	c.clk.RunFor(5 * time.Millisecond)

	applied := func() int {
		n := 0
		for _, name := range names {
			if _, _, ok := c.backup.Value(name); ok {
				n++
			}
		}
		return n
	}

	if err := c.primary.AddPeer("backup:7000"); err != nil {
		t.Fatal(err)
	}
	// Let the exchange run until a few chunks have landed, then cut the
	// link mid-generation.
	for i := 0; i < 200 && applied() < 4; i++ {
		c.clk.RunFor(time.Millisecond)
	}
	survived := applied()
	if survived < 4 || survived == objects {
		t.Fatalf("partition point missed: %d/%d entries landed", survived, objects)
	}
	c.bEP.SetDown(true)
	c.clk.RunFor(1500 * time.Millisecond)
	if c.backup.Joined() {
		t.Fatal("backup reported joined across a partition")
	}

	c.bEP.SetDown(false)
	c.clk.RunFor(3 * time.Second)

	if !c.backup.Joined() {
		t.Fatal("join never completed after the partition healed")
	}
	if got := applied(); got != objects {
		t.Fatalf("backup holds %d/%d entries after resume", got, objects)
	}
	if got := c.primary.SyncedPeers(); got != 1 {
		t.Fatalf("synced peers = %d, want 1", got)
	}

	pr := c.primary.peerByAddr("backup:7000")
	if pr == nil {
		t.Fatal("no transfer stats for the backup peer")
	}
	st := pr.xfer
	if st.Completions != 1 {
		t.Fatalf("completions = %d, want 1", st.Completions)
	}
	if st.Digests < 2 {
		t.Fatalf("digests = %d, want at least 2 (initial + resume)", st.Digests)
	}
	if st.ChunkRetransmits == 0 {
		t.Fatal("no chunk retransmissions despite a mid-stream partition")
	}
	// The resumability contract: what landed before the cut is skipped by
	// the resume digest, and the total streamed stays well under a
	// restart-from-scratch (2× the table).
	if st.EntriesSkipped < survived {
		t.Fatalf("entries skipped = %d, want at least the %d that survived the cut",
			st.EntriesSkipped, survived)
	}
	if st.EntriesSent >= 2*objects {
		t.Fatalf("entries sent = %d — the transfer restarted from scratch (table is %d)",
			st.EntriesSent, objects)
	}
}

// TestJoinExchangeCompletesOnCleanLink sanity-checks the happy path: one
// digest, no retransmissions, every entry streamed exactly once.
func TestJoinExchangeCompletesOnCleanLink(t *testing.T) {
	c := newTestCluster(t, clusterOpts{
		seed:    3,
		link:    netsim.LinkParams{Delay: time.Millisecond},
		mutateP: func(cfg *Config) { cfg.Peer = "" },
	})
	defer c.primary.Stop()
	defer c.backup.Stop()

	const objects = chunkEntries + 4
	for i := 0; i < objects; i++ {
		name := fmt.Sprintf("clean%d", i)
		d := c.primary.Register(ObjectSpec{
			Name:         name,
			Size:         32,
			UpdatePeriod: 500 * time.Millisecond,
			Constraint: temporal.ExternalConstraint{
				DeltaP: 500 * time.Millisecond,
				DeltaB: 2 * time.Second,
			},
		})
		if !d.Accepted {
			t.Fatalf("register %q: %s", name, d.Reason)
		}
		c.primary.ClientWrite(name, []byte{byte(i)}, nil)
	}
	c.clk.RunFor(5 * time.Millisecond)

	if err := c.primary.AddPeer("backup:7000"); err != nil {
		t.Fatal(err)
	}
	c.clk.RunFor(500 * time.Millisecond)

	if !c.backup.Joined() {
		t.Fatal("join never completed on a clean link")
	}
	st := c.primary.peerByAddr("backup:7000").xfer
	if st.Digests != 1 || st.ChunkRetransmits != 0 || st.Completions != 1 {
		t.Fatalf("stats = %+v, want one digest, no retransmits, one completion", st)
	}
	if st.EntriesSent != objects {
		t.Fatalf("entries sent = %d, want %d", st.EntriesSent, objects)
	}
}

// TestJoinRecoversFromLostFinalAck covers the one interruption the
// joiner's digest retry cannot repair: the final chunk lands (the backup
// flips to joined and stops sending digests) but every acknowledgement
// toward the primary is lost. Once the chunk's retry budget is spent the
// primary must restart the exchange from the JoinAccept rather than wait
// for a digest that will never come — the fresh digest then proves
// parity and an empty final chunk closes the sync.
func TestJoinRecoversFromLostFinalAck(t *testing.T) {
	c := newTestCluster(t, clusterOpts{
		seed:    17,
		link:    netsim.LinkParams{Delay: time.Millisecond},
		mutateP: func(cfg *Config) { cfg.Peer = "" }, // the backup is attached later, via AddPeer
	})
	defer c.primary.Stop()
	defer c.backup.Stop()

	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("ack%d", i)
		d := c.primary.Register(ObjectSpec{
			Name:         name,
			Size:         32,
			UpdatePeriod: 500 * time.Millisecond,
			Constraint: temporal.ExternalConstraint{
				DeltaP: 500 * time.Millisecond,
				DeltaB: 2 * time.Second,
			},
		})
		if !d.Accepted {
			t.Fatalf("register %q: %s", name, d.Reason)
		}
		c.primary.ClientWrite(name, []byte{byte(i)}, nil)
	}
	c.clk.RunFor(5 * time.Millisecond)

	if err := c.primary.AddPeer("backup:7000"); err != nil {
		t.Fatal(err)
	}
	// Let the exchange run until the primary has streamed the (single,
	// final) chunk, then cut only the backup→primary direction: the chunk
	// and its retransmissions still arrive, but no ack ever returns.
	stats := func() TransferStats { return c.primary.peerByAddr("backup:7000").xfer }
	for i := 0; i < 100 && stats().EntriesSent == 0; i++ {
		c.clk.RunFor(100 * time.Microsecond)
	}
	if stats().EntriesSent == 0 {
		t.Fatal("chunk was never streamed")
	}
	c.net.PartitionOneWay("backup", "primary")

	// The backup receives the final chunk and considers itself joined;
	// the primary keeps retransmitting into the void.
	c.clk.RunFor(10 * time.Millisecond)
	if !c.backup.Joined() {
		t.Fatal("backup never received the final chunk")
	}
	if got := c.primary.SyncedPeers(); got != 0 {
		t.Fatalf("synced peers = %d with every ack cut, want 0", got)
	}

	// Run until the retry budget is spent and the primary re-opens the
	// exchange (a second JoinAccept). Without the restart this polls out:
	// the joined backup sends no digests, so nothing ever resumes.
	for i := 0; i < 4000 && stats().JoinAccepts < 2; i++ {
		c.clk.RunFor(5 * time.Millisecond)
	}
	if stats().JoinAccepts < 2 {
		t.Fatal("exchange was never restarted after the chunk retry budget ran out")
	}

	c.net.HealOneWay("backup", "primary")
	c.clk.RunFor(2 * time.Second)

	if got := c.primary.SyncedPeers(); got != 1 {
		t.Fatalf("synced peers = %d after heal, want 1", got)
	}
	st := stats()
	if st.Completions != 1 {
		t.Fatalf("completions = %d, want 1", st.Completions)
	}
	// The restarted exchange must skip what already landed, not
	// re-stream the table.
	if st.EntriesSent != 2 {
		t.Fatalf("entries sent = %d, want 2 (no re-streaming on restart)", st.EntriesSent)
	}
	if st.EntriesSkipped < 2 {
		t.Fatalf("entries skipped = %d, want at least 2 from the parity digest", st.EntriesSkipped)
	}
}
