package rtpb_test

import (
	"bytes"
	"testing"
	"time"

	"rtpb"
	"rtpb/internal/clock"
	"rtpb/internal/topo"
)

// fragPair builds a primary and backup over uport→frag→driver stacks of
// the given MTU on a fresh fabric, with one object of size bytes
// registered.
func fragPair(t *testing.T, seed int64, link rtpb.LinkParams, mtu int, name string, size int) (*rtpb.SimClock, *rtpb.Primary, *rtpb.Backup) {
	t.Helper()
	f, err := topo.New(seed, link)
	if err != nil {
		t.Fatal(err)
	}
	var ports [2]*rtpb.PortProtocol
	for i, host := range []string{"primary", "backup"} {
		ep, err := f.Net.Endpoint(host)
		if err != nil {
			t.Fatal(err)
		}
		if ports[i], err = rtpb.NewStackMTU(ep, f.Clock, mtu); err != nil {
			t.Fatal(err)
		}
	}
	primary, err := rtpb.NewPrimary(rtpb.Config{Clock: f.Clock, Port: ports[0], Peer: "backup:7000", Ell: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	backup, err := rtpb.NewBackup(rtpb.Config{Clock: f.Clock, Port: ports[1], Peer: "primary:7000", Ell: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if d := primary.Register(rtpb.ObjectSpec{
		Name:         name,
		Size:         size,
		UpdatePeriod: 40 * time.Millisecond,
		Constraint: rtpb.ExternalConstraint{
			DeltaP: 50 * time.Millisecond,
			DeltaB: 300 * time.Millisecond,
		},
	}); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	return f.Clock, primary, backup
}

// TestLargeObjectOverFragmentedStack replicates an object far larger than
// the transport MTU through the uport→frag→driver graph, end to end.
func TestLargeObjectOverFragmentedStack(t *testing.T) {
	clk, primary, backup := fragPair(t, 5, rtpb.LinkParams{Delay: 2 * time.Millisecond}, 512, "image", 8192)
	payload := bytes.Repeat([]byte{0xC7, 0x01, 0x55, 0xAA}, 2048) // 8 KiB ≫ 512 B MTU
	primary.ClientWrite("image", payload, nil)
	clk.RunFor(500 * time.Millisecond)
	got, _, ok := backup.Value("image")
	if !ok {
		t.Fatal("backup missing large object")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("large object corrupted over fragmentation: %d bytes", len(got))
	}
}

// TestLargeObjectFragmentsSurviveModerateLoss checks that the whole-update
// semantics hold under loss: a fragment loss costs that update, but the
// next periodic update heals the backup.
func TestLargeObjectFragmentsSurviveModerateLoss(t *testing.T) {
	clk, primary, backup := fragPair(t, 6, rtpb.LinkParams{Delay: 2 * time.Millisecond, LossProb: 0.02}, 256, "blob", 2048)
	want := bytes.Repeat([]byte{0x42}, 2048)
	writer := clock.NewPeriodic(clk, 0, 40*time.Millisecond, func() {
		primary.ClientWrite("blob", want, nil)
	})
	clk.RunFor(5 * time.Second)
	writer.Stop()
	got, _, ok := backup.Value("blob")
	if !ok {
		t.Fatal("backup missing object under loss")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("object corrupted: partial fragments were applied")
	}
}
