package topo

import (
	"errors"
	"testing"
	"time"

	"rtpb/internal/netsim"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// TestBuildWiresHostsOnOneFabric sends one datagram between two built
// hosts on the RTPB port: the stacks, endpoints, addresses and the
// fabric's default link all have to line up for it to arrive, one link
// delay later.
func TestBuildWiresHostsOnOneFabric(t *testing.T) {
	f, hs, err := Build(1, netsim.LinkParams{Delay: 3 * time.Millisecond}, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	a, b := hs[0], hs[1]
	if a.Name != "a" || b.Addr != "b:7000" {
		t.Fatalf("hosts %q/%q, want a and b:7000", a.Name, b.Addr)
	}
	var got string
	var from xkernel.Addr
	var at time.Duration
	start := f.Clock.Now()
	if err := b.Port.EnablePort(wire.Port, xkernel.UpperFunc(func(m *xkernel.Message, src xkernel.Addr) error {
		got, from, at = string(m.Bytes()), src, f.Clock.Now().Sub(start)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	sess, err := a.Port.OpenFrom(wire.Port, b.Addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(xkernel.NewMessage([]byte("hello"))); err != nil {
		t.Fatal(err)
	}
	f.Clock.RunFor(10 * time.Millisecond)
	if got != "hello" || from != a.Addr || at != 3*time.Millisecond {
		t.Fatalf("delivered %q from %v after %v, want %q from %v after 3ms", got, from, at, "hello", a.Addr)
	}
	if st := f.Net.Stats(); st.Delivered != 1 {
		t.Fatalf("fabric delivered %d datagrams, want 1", st.Delivered)
	}
}

// TestBuildRejectsBadInput covers the two errors a topology can hit: a
// link the fabric refuses and a host name used twice.
func TestBuildRejectsBadInput(t *testing.T) {
	if _, _, err := Build(1, netsim.LinkParams{LossProb: 2}); err == nil {
		t.Fatal("Build accepted a loss probability of 2")
	}
	if _, _, err := Build(1, netsim.LinkParams{}, "a", "a"); !errors.Is(err, netsim.ErrDuplicateHost) {
		t.Fatalf("duplicate host: err = %v, want ErrDuplicateHost", err)
	}
}
