package netsim

import (
	"bytes"
	"net"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/xkernel"
)

var _ xkernel.Transport = (*Endpoint)(nil)
var _ xkernel.Transport = (*UDPTransport)(nil)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

type delivery struct {
	from    string
	payload string
	at      time.Duration
}

func fabric(t *testing.T, seed int64) (*clock.SimClock, *Network) {
	t.Helper()
	clk := clock.NewSim()
	return clk, New(clk, seed)
}

func collect(t *testing.T, clk *clock.SimClock, ep *Endpoint) *[]delivery {
	t.Helper()
	out := &[]delivery{}
	ep.SetReceiver(func(from string, payload []byte) {
		*out = append(*out, delivery{from, string(payload), clk.Now().Sub(clock.SimEpoch)})
	})
	return out
}

func TestDeliveryWithDelay(t *testing.T) {
	clk, n := fabric(t, 1)
	if err := n.SetDefaultLink(LinkParams{Delay: ms(5)}); err != nil {
		t.Fatal(err)
	}
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := collect(t, clk, b)
	if err := a.Send("b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(ms(10))
	if len(*got) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(*got))
	}
	d := (*got)[0]
	if d.from != "a" || d.payload != "hi" || d.at != ms(5) {
		t.Fatalf("delivery = %+v", d)
	}
}

func TestJitterStaysWithinBound(t *testing.T) {
	clk, n := fabric(t, 2)
	lp := LinkParams{Delay: ms(2), Jitter: ms(3)}
	if err := n.SetDefaultLink(lp); err != nil {
		t.Fatal(err)
	}
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := collect(t, clk, b)
	for i := 0; i < 200; i++ {
		if err := a.Send("b", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	clk.RunFor(ms(10))
	if len(*got) != 200 {
		t.Fatalf("deliveries = %d, want 200", len(*got))
	}
	for _, d := range *got {
		if d.at < ms(2) || d.at > lp.Bound() {
			t.Fatalf("delivery at %v outside [2ms, %v]", d.at, lp.Bound())
		}
	}
}

func TestLossRateApproximatelyHonored(t *testing.T) {
	clk, n := fabric(t, 3)
	if err := n.SetDefaultLink(LinkParams{LossProb: 0.3}); err != nil {
		t.Fatal(err)
	}
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := collect(t, clk, b)
	const total = 5000
	for i := 0; i < total; i++ {
		a.Send("b", []byte{1})
	}
	clk.RunFor(ms(1))
	rate := 1 - float64(len(*got))/total
	if rate < 0.27 || rate > 0.33 {
		t.Fatalf("observed loss rate %.3f, want ≈0.30", rate)
	}
	st := n.Stats()
	if st.Sent != total || st.DroppedLoss+st.Delivered != total {
		t.Fatalf("stats inconsistent: %+v", st)
	}
}

func TestDeterministicForSameSeed(t *testing.T) {
	run := func() []delivery {
		clk, n := fabric(t, 99)
		n.SetDefaultLink(LinkParams{Delay: ms(1), Jitter: ms(4), LossProb: 0.5})
		a, _ := n.Endpoint("a")
		b, _ := n.Endpoint("b")
		got := collect(t, clk, b)
		for i := 0; i < 50; i++ {
			a.Send("b", []byte{byte(i)})
		}
		clk.RunFor(ms(20))
		return *got
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("runs differ in length: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("runs diverge at %d: %+v vs %+v", i, x[i], y[i])
		}
	}
}

func TestPartitionAndHeal(t *testing.T) {
	clk, n := fabric(t, 4)
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := collect(t, clk, b)
	n.Partition("a", "b")
	a.Send("b", []byte("lost"))
	clk.RunFor(ms(5))
	if len(*got) != 0 {
		t.Fatalf("partitioned delivery: %+v", *got)
	}
	n.Heal("a", "b")
	a.Send("b", []byte("ok"))
	clk.RunFor(ms(5))
	if len(*got) != 1 || (*got)[0].payload != "ok" {
		t.Fatalf("post-heal deliveries: %+v", *got)
	}
}

func TestDownEndpointDropsTraffic(t *testing.T) {
	clk, n := fabric(t, 5)
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := collect(t, clk, b)
	b.SetDown(true)
	a.Send("b", []byte("x"))
	clk.RunFor(ms(5))
	if len(*got) != 0 {
		t.Fatal("down endpoint received datagram")
	}
	b.SetDown(false)
	a.Send("b", []byte("y"))
	clk.RunFor(ms(5))
	if len(*got) != 1 {
		t.Fatal("recovered endpoint did not receive")
	}
	// A down sender cannot transmit either.
	a.SetDown(true)
	a.Send("b", []byte("z"))
	clk.RunFor(ms(5))
	if len(*got) != 1 {
		t.Fatal("down sender transmitted")
	}
}

func TestCrashMidFlight(t *testing.T) {
	// A datagram already in flight is lost if the destination crashes
	// before it lands.
	clk, n := fabric(t, 6)
	n.SetDefaultLink(LinkParams{Delay: ms(10)})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := collect(t, clk, b)
	a.Send("b", []byte("x"))
	clk.RunFor(ms(5))
	b.SetDown(true)
	clk.RunFor(ms(10))
	if len(*got) != 0 {
		t.Fatal("crashed endpoint received in-flight datagram")
	}
}

func TestDuplicateDelivery(t *testing.T) {
	clk, n := fabric(t, 7)
	n.SetDefaultLink(LinkParams{DuplicateProb: 1})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := collect(t, clk, b)
	a.Send("b", []byte("x"))
	clk.RunFor(ms(5))
	if len(*got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (forced duplication)", len(*got))
	}
}

func TestPayloadIsolated(t *testing.T) {
	clk, n := fabric(t, 8)
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	got := collect(t, clk, b)
	buf := []byte("orig")
	a.Send("b", buf)
	buf[0] = 'X' // mutate after send; fabric must have copied
	clk.RunFor(ms(5))
	if (*got)[0].payload != "orig" {
		t.Fatalf("payload = %q, want orig", (*got)[0].payload)
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	_, n := fabric(t, 9)
	if _, err := n.Endpoint("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Endpoint("a"); err == nil {
		t.Fatal("duplicate host accepted")
	}
}

func TestClosedEndpointRejectsSend(t *testing.T) {
	_, n := fabric(t, 10)
	a, _ := n.Endpoint("a")
	a.Close()
	if err := a.Send("b", []byte("x")); err == nil {
		t.Fatal("send on closed endpoint succeeded")
	}
}

func TestLinkParamsValidate(t *testing.T) {
	bad := []LinkParams{
		{Delay: -1},
		{Jitter: -1},
		{LossProb: -0.1},
		{LossProb: 1.1},
		{DuplicateProb: 2},
	}
	for _, lp := range bad {
		if err := lp.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted", lp)
		}
	}
	if err := (LinkParams{Delay: ms(1), Jitter: ms(1), LossProb: 0.5}).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func TestPerLinkOverridesDefault(t *testing.T) {
	clk, n := fabric(t, 11)
	n.SetDefaultLink(LinkParams{Delay: ms(1)})
	n.SetLink("a", "b", LinkParams{Delay: ms(20)})
	a, _ := n.Endpoint("a")
	b, _ := n.Endpoint("b")
	gotB := collect(t, clk, b)
	a.Send("b", []byte("x"))
	clk.RunFor(ms(30))
	if (*gotB)[0].at != ms(20) {
		t.Fatalf("a→b delivered at %v, want 20ms", (*gotB)[0].at)
	}
	// Reverse direction keeps the default.
	gotA := collect(t, clk, a)
	b.Send("a", []byte("y"))
	clk.RunFor(ms(30))
	if (*gotA)[0].at != ms(31) {
		t.Fatalf("b→a delivered at %v, want 31ms (sent at 30ms + default 1ms)", (*gotA)[0].at)
	}
}

func TestUDPTransportRoundTrip(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	a, err := NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer a.Close()
	b, err := NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan string, 1)
	b.SetReceiver(func(from string, payload []byte) {
		got <- string(payload)
	})
	if err := a.Send(b.LocalAddr(), []byte("over-the-wire")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-got:
		if p != "over-the-wire" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not delivered")
	}
}

// udpPair opens two loopback transports on one RealClock.
func udpPair(t *testing.T) (clk *clock.RealClock, a, b *UDPTransport) {
	t.Helper()
	clk = clock.NewReal()
	t.Cleanup(clk.Stop)
	a, err := NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = NewUDP(clk, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return clk, a, b
}

// The receiver is told the sender's own name for itself, every time, so a
// reply to it arrives; and a host name is a valid destination.
func TestUDPTransportNamesPeersAsTheyNameThemselves(t *testing.T) {
	_, a, b := udpPair(t)
	froms := make(chan string, 3)
	b.SetReceiver(func(from string, payload []byte) { froms <- from })
	echoed := make(chan string, 1)
	a.SetReceiver(func(from string, payload []byte) { echoed <- string(payload) })
	for i := 0; i < 3; i++ {
		if err := a.Send(b.LocalAddr(), []byte("ping")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case from := <-froms:
			if from != a.LocalAddr() {
				t.Fatalf("datagram %d from %q, want %q", i, from, a.LocalAddr())
			}
		case <-time.After(2 * time.Second):
			t.Fatal("datagram not delivered")
		}
	}
	_, port, err := net.SplitHostPort(a.LocalAddr())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(net.JoinHostPort("localhost", port), []byte("pong")); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-echoed:
		if p != "pong" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram to a host name not delivered")
	}
	if err := b.Send("no-port", nil); err == nil {
		t.Fatal("Send to an unparsable address succeeded")
	}
}

// NewUDP sizes both socket buffers and reports what the kernel granted.
func TestUDPTransportSocketBuffers(t *testing.T) {
	_, a, _ := udpPair(t)
	rcv, snd := a.SocketBuffers()
	if rcv <= 0 || snd <= 0 {
		t.Fatalf("granted buffers not read back: %d B receive, %d B send", rcv, snd)
	}
	for _, f := range []string{"rmem_max", "wmem_max"} {
		raw, err := os.ReadFile("/proc/sys/net/core/" + f)
		if limit, perr := strconv.Atoi(strings.TrimSpace(string(raw))); err != nil || perr != nil || limit < MinSocketBuffer {
			t.Skipf("net.core.%s = %q: the kernel cannot grant %d B here", f, raw, MinSocketBuffer)
		}
	}
	if rcv < MinSocketBuffer || snd < MinSocketBuffer {
		t.Fatalf("kernel granted %d B receive, %d B send, want >= %d B each", rcv, snd, MinSocketBuffer)
	}
}

// A steady-state receive allocates nothing: after warm-up every datagram
// is copied into a slot the transport already holds and delivered by the
// one drain callback it posts.
func TestUDPReceiveZeroAlloc(t *testing.T) {
	_, _, b := udpPair(t)
	got := make(chan struct{}, 1)
	b.SetReceiver(func(string, []byte) { got <- struct{}{} })
	// A connected socket sends without allocating, so what is counted is
	// the receiver's.
	conn, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(netip.MustParseAddrPort(b.LocalAddr())))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 64)
	lost := time.NewTimer(time.Hour)
	defer lost.Stop()
	roundTrip := func() {
		if _, err := conn.Write(payload); err != nil {
			t.Fatal(err)
		}
		lost.Reset(2 * time.Second)
		select {
		case <-got:
		case <-lost.C:
			t.Fatal("datagram lost on loopback")
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs != 0 {
		t.Fatalf("receiving a datagram allocates %v times, want 0", allocs)
	}
}

// Recycled slots never mix datagrams: a burst of different sizes, some
// larger than a slot's first buffer, arrives in order, each datagram at
// most once and as it was sent, though the receiver is slow and
// scribbles over what it was lent.
func TestUDPReceiveRecyclesSlotsIntact(t *testing.T) {
	_, a, b := udpPair(t)
	const n = 400
	var bad, count atomic.Int64
	done := make(chan struct{})
	last := -1
	b.SetReceiver(func(_ string, p []byte) {
		i := int(p[0])<<8 | int(p[1])
		for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; { // the reader runs ahead meanwhile
		}
		if i <= last || len(p) != burstSize(i) || !bytes.Equal(p[2:], bytes.Repeat(p[1:2], len(p)-2)) {
			bad.Add(1)
		}
		last = i
		for i := range p {
			p[i] = 0xA5
		}
		if count.Add(1) == n {
			close(done)
		}
	})
	for i := 0; i < n; i++ {
		p := bytes.Repeat([]byte{byte(i)}, burstSize(i))
		p[0] = byte(i >> 8)
		if err := a.Send(b.LocalAddr(), p); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second): // loopback may drop some of a burst
	}
	if count.Load() == 0 || bad.Load() != 0 {
		t.Fatalf("%d of %d datagrams arrived, %d of them altered", count.Load(), n, bad.Load())
	}
}

// burstSize is the length of datagram i of a burst: 2 to ~6 KiB.
func burstSize(i int) int { return 2 + i*i%6000 }
