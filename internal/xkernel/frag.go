package xkernel

import (
	"encoding/binary"
	"fmt"
	"time"

	"rtpb/internal/clock"
)

// fragmenter splits messages larger than the transport MTU and
// reassembles them on receipt — the role the x-kernel's BLAST protocol
// plays in classic configurations. NewStack puts it between the port
// protocol and the driver, so large object updates transparently survive
// a datagram transport.
//
// Header (8 bytes, big-endian): message id (4), fragment index (2),
// fragment count (2). Reassembly is per (source, message id); partial
// messages are discarded after fragTimeout, since any fragment can be lost.
type fragmenter struct {
	mtu     int // payload per fragment, upper-layer headers included
	clk     clock.Clock
	down    *driver
	port    *PortProtocol
	nextID  uint32
	pending map[fragKey]*fragBuffer
	out     Message // every outbound fragment: the driver sends it before returning
}

type fragKey struct {
	from Addr
	id   uint32
}

type fragBuffer struct {
	parts    [][]byte
	received int
	size     int // bytes held in parts
	expires  *clock.Event
}

const (
	fragHeaderLen = 8
	fragTimeout   = time.Second
	// maxMessage bounds one fragmented message. The largest message RTPB
	// sends is one wire.MaxPayload (1 MiB) object plus headers. Push
	// refuses a longer message, and demux drops a fragment of one, so a
	// peer that lies about its fragment count cannot make the receiver
	// hold more.
	maxMessage = 2 << 20
	// maxPending caps concurrent partial reassemblies: with maxMessage it
	// bounds what lying peers can make a stack retain. A fragment that
	// would start one more is dropped, like a lost datagram.
	maxPending = 64
)

// push splits m into fragments of at most mtu bytes and sends each one.
func (f *fragmenter) push(host string, m *Message) error {
	payload := m.Bytes()
	count := max(1, (len(payload)+f.mtu-1)/f.mtu)
	if len(payload) > maxMessage || count > 0xFFFF {
		return fmt.Errorf("xkernel: frag: %d-byte message exceeds %d bytes or 65535 fragments", len(payload), maxMessage)
	}
	f.nextID++
	for idx := 0; idx < count; idx++ {
		lo := idx * f.mtu
		f.out.Reset(payload[lo:min(lo+f.mtu, len(payload))])
		var h [fragHeaderLen]byte
		binary.BigEndian.PutUint32(h[0:4], f.nextID)
		binary.BigEndian.PutUint16(h[4:6], uint16(idx))
		binary.BigEndian.PutUint16(h[6:8], uint16(count))
		f.out.Push(h[:])
		if err := f.down.push(host, &f.out); err != nil {
			return err
		}
	}
	return nil
}

// demux strips the fragment header, reassembles, and delivers complete
// messages to the port protocol.
func (f *fragmenter) demux(m *Message, from Addr) error {
	h, err := m.Pop(fragHeaderLen)
	if err != nil {
		return err
	}
	id := binary.BigEndian.Uint32(h[0:4])
	idx := int(binary.BigEndian.Uint16(h[4:6]))
	count := int(binary.BigEndian.Uint16(h[6:8]))
	if count == 0 || idx >= count {
		return fmt.Errorf("xkernel: frag: bad fragment %d/%d", idx, count)
	}
	if count == 1 {
		return f.port.demux(m, from)
	}
	if (count-1)*f.mtu >= maxMessage {
		return fmt.Errorf("xkernel: frag: %d fragments of %d bytes exceed %d bytes", count, f.mtu, maxMessage)
	}
	key := fragKey{from: from, id: id}
	buf, ok := f.pending[key]
	if !ok {
		if len(f.pending) >= maxPending {
			return fmt.Errorf("xkernel: frag: %d reassemblies pending", maxPending)
		}
		buf = &fragBuffer{parts: make([][]byte, count)}
		buf.expires = f.clk.Schedule(fragTimeout, func() {
			delete(f.pending, key)
		})
		f.pending[key] = buf
	}
	if len(buf.parts) != count {
		f.drop(key, buf)
		return fmt.Errorf("xkernel: frag: fragment count changed mid-message")
	}
	if buf.parts[idx] == nil {
		if buf.size+m.Len() > maxMessage {
			f.drop(key, buf)
			return fmt.Errorf("xkernel: frag: message %d exceeds %d bytes", id, maxMessage)
		}
		// The datagram is lent for this call only (see Transport).
		part := make([]byte, m.Len())
		copy(part, m.Bytes())
		buf.parts[idx] = part
		buf.size += len(part)
		buf.received++
	}
	if buf.received < count {
		return nil
	}
	f.drop(key, buf)
	whole := make([]byte, 0, buf.size)
	for _, p := range buf.parts {
		whole = append(whole, p...)
	}
	return f.port.demux(FromWire(whole), from)
}

// drop forgets a reassembly and cancels its timeout.
func (f *fragmenter) drop(key fragKey, buf *fragBuffer) {
	buf.expires.Cancel()
	delete(f.pending, key)
}
