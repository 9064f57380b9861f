package netsim

import (
	"fmt"
	"net"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"

	"rtpb/internal/clock"
)

// UDPTransport adapts a real UDP socket to xkernel.Transport, letting the
// cmd/ daemons run the identical protocol graph over a physical network.
// Inbound datagrams are queued for the clock's executor so protocol code
// keeps the serial execution model it has under simulation.
type UDPTransport struct {
	clk   clock.Clock
	conn  *net.UDPConn
	recv  atomic.Pointer[func(from string, payload []byte)]
	done  chan struct{}
	drain func() // posted when the inbound queue goes non-empty

	rcvBuf, sndBuf int // socket buffer sizes the kernel granted

	mu    sync.Mutex                // guards dests: Send has no goroutine of its own
	dests map[string]netip.AddrPort // parsed destination per "ip:port" string

	// The reader fills queue under qmu; deliver, on the loop, swaps it
	// with spare. A slot keeps its buffer and is refilled in place.
	qmu          sync.Mutex
	queue, spare []inbound
}

// inbound is one datagram waiting for the clock's executor.
type inbound struct {
	from    string
	payload []byte
}

const (
	// maxDatagram bounds receive buffers.
	maxDatagram = 64 * 1024
	// socketBuffer is the kernel buffer size asked for in each direction.
	// Update tasks registered in one loop turn share a phase, so a primary
	// releases all its objects' fragments at one instant (16 x 16 KiB over
	// a 1400-byte MTU is 192 datagrams, 268 KB) and the receiver's reader
	// may not be scheduled when they land; Linux's default of 208 KiB
	// cannot hold such a burst.
	socketBuffer = 4 << 20
	// MinSocketBuffer is the granted size below which bursts of that
	// shape are at risk; see SocketBuffers.
	MinSocketBuffer = 1 << 20
	// maxPeers bounds the two per-peer address caches; past it a cache
	// starts over, so a flood of spoofed sources cannot grow it.
	maxPeers = 1024
	// maxSpare bounds the slots, and so the buffers, kept for reuse.
	maxSpare = 512
)

// NewUDP opens a UDP socket bound to listenAddr ("ip:port"; an empty or
// ":0" address picks an ephemeral port), sizes its kernel buffers and
// starts its reader goroutine.
func NewUDP(clk clock.Clock, listenAddr string) (*UDPTransport, error) {
	laddr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netsim: resolve %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %q: %w", listenAddr, err)
	}
	t := &UDPTransport{
		clk:   clk,
		conn:  conn,
		done:  make(chan struct{}),
		dests: make(map[string]netip.AddrPort),
	}
	t.drain = t.deliver
	// The kernel clamps a request to its configured maximum without an
	// error, so the outcome is read back and left to the caller to judge.
	_ = conn.SetReadBuffer(socketBuffer)
	_ = conn.SetWriteBuffer(socketBuffer)
	t.rcvBuf, t.sndBuf = grantedBuffers(conn)
	go t.readLoop()
	return t, nil
}

// grantedBuffers reads back SO_RCVBUF and SO_SNDBUF; a size that cannot
// be read is reported as 0.
func grantedBuffers(conn *net.UDPConn) (rcv, snd int) {
	raw, err := conn.SyscallConn()
	if err != nil {
		return 0, 0
	}
	_ = raw.Control(func(fd uintptr) {
		rcv, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
		snd, _ = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	})
	return rcv, snd
}

// SocketBuffers reports the receive and send buffer sizes the kernel
// granted the socket, in bytes as getsockopt reports them (Linux counts
// its own bookkeeping in, so a fully granted request reads back doubled).
// Under MinSocketBuffer, raise net.core.rmem_max / wmem_max.
func (t *UDPTransport) SocketBuffers() (rcv, snd int) { return t.rcvBuf, t.sndBuf }

func (t *UDPTransport) readLoop() {
	defer close(t.done)
	buf := make([]byte, maxDatagram)
	names := make(map[netip.AddrPort]string) // this goroutine's only
	for {
		n, addr, err := t.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		from, ok := names[addr]
		if !ok {
			if len(names) >= maxPeers {
				clear(names)
			}
			from = unmap(addr).String()
			names[addr] = from
		}
		// The one copy: delivery waits for the clock's executor, and buf
		// is overwritten by the next read.
		t.qmu.Lock()
		t.queue = slices.Grow(t.queue, 1)[:len(t.queue)+1]
		d := &t.queue[len(t.queue)-1] // its buffer grows to the largest datagram it held
		d.from, d.payload = from, append(d.payload[:0], buf[:n]...)
		first := len(t.queue) == 1
		t.qmu.Unlock()
		if first {
			t.clk.Post(t.drain)
		}
	}
}

// deliver hands the datagrams queued so far to the receiver on the
// clock's executor; later ones wait for the next turn. Their slots are
// refilled afterwards, since a payload is valid only during the receive
// callback (xkernel.Transport).
func (t *UDPTransport) deliver() {
	t.qmu.Lock()
	batch := t.queue
	t.queue = t.spare
	t.qmu.Unlock()
	for _, d := range batch {
		if recv := t.recv.Load(); recv != nil {
			(*recv)(d.from, d.payload)
		}
	}
	t.spare = batch[:0:min(cap(batch), maxSpare)]
}

// Send implements xkernel.Transport; to is "host:port".
func (t *UDPTransport) Send(to string, payload []byte) error {
	dest, err := t.dest(to)
	if err != nil {
		return err
	}
	if _, err = t.conn.WriteToUDPAddrPort(payload, dest); err != nil {
		// Resolve a host name afresh next time: its address may have moved.
		t.mu.Lock()
		delete(t.dests, to)
		t.mu.Unlock()
	}
	return err
}

// dest resolves a destination once and remembers it.
func (t *UDPTransport) dest(to string) (netip.AddrPort, error) {
	t.mu.Lock()
	dest, ok := t.dests[to]
	t.mu.Unlock()
	if ok {
		return dest, nil
	}
	raddr, err := net.ResolveUDPAddr("udp", to) // may ask DNS: not under mu
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("netsim: resolve %q: %w", to, err)
	}
	dest = unmap(raddr.AddrPort())
	t.mu.Lock()
	if len(t.dests) >= maxPeers {
		clear(t.dests)
	}
	t.dests[to] = dest
	t.mu.Unlock()
	return dest, nil
}

// unmap turns ::ffff:a.b.c.d into a.b.c.d: an IPv4 socket refuses the
// mapped form, and a dual-stack socket reports IPv4 peers in it while they
// name themselves without.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// SetReceiver implements xkernel.Transport. It may be called from any
// goroutine; datagrams that arrived earlier are dropped. The receiver
// runs on the clock executor.
func (t *UDPTransport) SetReceiver(fn func(from string, payload []byte)) {
	t.recv.Store(&fn)
}

// LocalAddr implements xkernel.Transport.
func (t *UDPTransport) LocalAddr() string { return t.conn.LocalAddr().String() }

// Close implements xkernel.Transport: it closes the socket and waits for
// the reader goroutine to exit.
func (t *UDPTransport) Close() error {
	err := t.conn.Close()
	<-t.done
	return err
}
