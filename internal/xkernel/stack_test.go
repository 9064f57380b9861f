package xkernel

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rtpb/internal/clock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stack.golden")

// fakeFabric connects fakeEndpoints by host name.
type fakeFabric map[string]*fakeEndpoint

// fakeEndpoint is a Transport that keeps every datagram sent through it,
// in order, and delivers it synchronously when the destination is on its
// fabric. A test injects datagrams by calling recv.
type fakeEndpoint struct {
	fabric fakeFabric
	host   string
	recv   func(from string, payload []byte)
	sent   []datagram
}

type datagram struct {
	to string
	b  []byte
}

func (e *fakeEndpoint) Send(to string, payload []byte) error {
	b := append([]byte(nil), payload...)
	e.sent = append(e.sent, datagram{to, b})
	if dst := e.fabric[to]; dst != nil && dst.recv != nil {
		dst.recv(e.host, b)
	}
	return nil
}
func (e *fakeEndpoint) SetReceiver(fn func(from string, payload []byte)) { e.recv = fn }
func (e *fakeEndpoint) LocalAddr() string                                { return e.host }
func (e *fakeEndpoint) Close() error                                     { return nil }

// newStack builds host's stack on fabric (nil: an unconnected endpoint).
func newStack(t *testing.T, fabric fakeFabric, host string, clk clock.Clock, mtu int) (*PortProtocol, *fakeEndpoint) {
	t.Helper()
	ep := &fakeEndpoint{fabric: fabric, host: host}
	if fabric != nil {
		fabric[host] = ep
	}
	p, err := NewStack(ep, clk, mtu)
	if err != nil {
		t.Fatal(err)
	}
	return p, ep
}

// stackTranscript drives two stacks of one shape: host a pushes payloads
// of awkward sizes from two local ports, and to a port nobody enabled, and
// every captured datagram is injected into host b. It returns the
// datagrams on the wire and what b's port delivered.
func stackTranscript(t *testing.T, mtu int) string {
	t.Helper()
	clk := clock.NewSim()
	pa, ta := newStack(t, nil, "a", clk, mtu)
	pb, tb := newStack(t, nil, "b", clk, mtu)
	var out bytes.Buffer
	if err := pb.EnablePort(7000, UpperFunc(func(m *Message, from Addr) error {
		fmt.Fprintf(&out, "mtu=%d deliver %s %d:%x\n", mtu, from, m.Len(), m.Bytes())
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	s1, err := pa.OpenFrom(7000, "b:7000")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pa.OpenFrom(7001, "b:7000")
	if err != nil {
		t.Fatal(err)
	}
	unbound, err := pa.OpenFrom(7000, "b:9")
	if err != nil {
		t.Fatal(err)
	}
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + n)
		}
		return p
	}
	for _, n := range []int{0, 1, 63, 64, 65, 200, 1600} {
		if err := s1.Push(NewMessage(payload(n))); err != nil {
			t.Fatal(err)
		}
		if err := s2.Push(NewMessage(payload(n + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := unbound.Push(NewMessage(payload(100))); err != nil {
		t.Fatal(err)
	}
	var wireLog bytes.Buffer
	for _, d := range ta.sent {
		fmt.Fprintf(&wireLog, "mtu=%d send %s %d:%x\n", mtu, d.to, len(d.b), d.b)
		tb.recv("a", d.b)
	}
	return wireLog.String() + out.String()
}

// TestStackBytesPinned freezes what NewStack puts on the wire and what it
// delivers, with and without the fragmentation layer: the port and
// fragment headers, the fragment id sequence, the split points and the
// drop of a datagram for an unbound port. Regenerate only for an intended
// wire change, with
//
//	go test ./internal/xkernel -run TestStackBytesPinned -update
func TestStackBytesPinned(t *testing.T) {
	got := stackTranscript(t, 0) + stackTranscript(t, 64)
	path := filepath.Join("testdata", "stack.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden transcript (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("stack transcript changed:\n got:\n%s\n want:\n%s", got, want)
	}
}

func TestGraphEndToEndPortDelivery(t *testing.T) {
	fabric := fakeFabric{}
	pa, _ := newStack(t, fabric, "alpha", nil, 0)
	pb, _ := newStack(t, fabric, "beta", nil, 0)

	var got []string
	var gotFrom Addr
	pb.EnablePort(7000, UpperFunc(func(m *Message, from Addr) error {
		got = append(got, string(m.Bytes()))
		gotFrom = from
		return nil
	}))

	sess, err := pa.OpenFrom(7000, "beta:7000")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Push(NewMessage([]byte("hello"))); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered = %v, want [hello]", got)
	}
	if gotFrom != "alpha:7000" {
		t.Fatalf("from = %q, want alpha:7000", gotFrom)
	}
}

func TestPortDemuxDropsUnboundPort(t *testing.T) {
	pb, ep := newStack(t, nil, "beta", nil, 0)
	delivered := 0
	pb.EnablePort(7000, UpperFunc(func(*Message, Addr) error { delivered++; return nil }))
	m := NewMessage([]byte("x"))
	m.Push([]byte{0x1b, 0x58, 0x27, 0x0f}) // 7000 → 9999
	if err := pb.demux(m, "alpha"); !errors.Is(err, ErrNoUpper) {
		t.Fatalf("demux to an unbound port = %v, want ErrNoUpper", err)
	}
	ep.recv("alpha", []byte{0x1b, 0x58, 0x27, 0x0f, 'x'})
	if delivered != 0 {
		t.Fatalf("a datagram for port 9999 reached port 7000")
	}
}

func TestPortEnableConflicts(t *testing.T) {
	p, _ := newStack(t, nil, "alpha", nil, 0)
	u := UpperFunc(func(*Message, Addr) error { return nil })
	if err := p.EnablePort(7000, u); err != nil {
		t.Fatal(err)
	}
	if err := p.EnablePort(7000, u); err == nil {
		t.Fatal("duplicate EnablePort succeeded")
	}
	p.DisablePort(7000)
	if err := p.EnablePort(7000, u); err != nil {
		t.Fatalf("EnablePort after DisablePort: %v", err)
	}
}

func TestSessionCloseRejectsPush(t *testing.T) {
	for _, mtu := range []int{0, 64} {
		p, ep := newStack(t, nil, "alpha", clock.NewSim(), mtu)
		sess, err := p.OpenFrom(7000, "beta:7000")
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()
		if err := sess.Push(NewMessage(nil)); !errors.Is(err, ErrClosed) {
			t.Fatalf("mtu %d: Push after Close = %v, want ErrClosed", mtu, err)
		}
		if len(ep.sent) != 0 {
			t.Fatalf("mtu %d: a closed session sent %d datagrams", mtu, len(ep.sent))
		}
	}
}

func TestSplitJoinHostPort(t *testing.T) {
	host, port, err := splitHostPort("node-a:7000")
	if err != nil || host != "node-a" || port != 7000 {
		t.Fatalf("splitHostPort = %q, %d, %v", host, port, err)
	}
	p, _ := newStack(t, nil, "alpha", nil, 0)
	for _, bad := range []Addr{"nocolon", ":7000", "host:", "host:notanum", "host:70000"} {
		if _, _, err := splitHostPort(bad); err == nil {
			t.Fatalf("splitHostPort(%q) accepted", bad)
		}
		if _, err := p.OpenFrom(7000, bad); !errors.Is(err, ErrBadAddress) {
			t.Fatalf("OpenFrom(%q) = %v, want ErrBadAddress", bad, err)
		}
	}
	if JoinHostPort("h", 9) != "h:9" {
		t.Fatal("JoinHostPort mismatch")
	}
}

func TestDriverDropsWithoutUpper(t *testing.T) {
	for _, mtu := range []int{0, 64} {
		_, ep := newStack(t, nil, "solo", clock.NewSim(), mtu)
		// Inbound datagrams before any port is enabled, and ones too short
		// for a header, must not panic.
		ep.recv("ghost", []byte("boo"))
		ep.recv("ghost", []byte{0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 9})
		ep.recv("ghost", nil)
	}
}
