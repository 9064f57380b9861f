package xkernel

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// PortProtocol is a minimal UDP-like protocol: it multiplexes a host-level
// datagram service into numbered ports with a four-byte header
// (source port, destination port). In the paper's stack this is the role
// UDP plays beneath the RTPB anchor protocol.
type PortProtocol struct {
	down     lower
	bindings map[uint16]Upper
	senders  map[sender]Addr // "host:port", joined once per sender
}

type sender struct {
	host Addr
	port uint16
}

// portHeaderLen is srcPort(2) + dstPort(2).
const portHeaderLen = 4

// maxSenders bounds senders; past it the cache starts over, so a flood of
// spoofed sources cannot grow it.
const maxSenders = 1024

// EnablePort registers u to receive messages addressed to port.
func (p *PortProtocol) EnablePort(port uint16, u Upper) error {
	if _, taken := p.bindings[port]; taken {
		return fmt.Errorf("xkernel: uport: port %d already enabled", port)
	}
	p.bindings[port] = u
	return nil
}

// DisablePort removes a port binding.
func (p *PortProtocol) DisablePort(port uint16) {
	delete(p.bindings, port)
}

// OpenFrom opens a session to remote ("host:port") with the given local
// port, which is how a well-known-port protocol like RTPB opens its peer.
func (p *PortProtocol) OpenFrom(local uint16, remote Addr) (*Session, error) {
	host, rport, err := splitHostPort(remote)
	if err != nil {
		return nil, err
	}
	return &Session{p: p, host: host, local: local, rport: rport}, nil
}

// demux strips the port header and delivers to the upper protocol bound
// to the destination port.
func (p *PortProtocol) demux(m *Message, from Addr) error {
	h, err := m.Pop(portHeaderLen)
	if err != nil {
		return err
	}
	src := binary.BigEndian.Uint16(h[0:2])
	dst := binary.BigEndian.Uint16(h[2:4])
	u, ok := p.bindings[dst]
	if !ok {
		return ErrNoUpper // no listener: drop, as UDP would
	}
	s := sender{from, src}
	a, ok := p.senders[s]
	if !ok {
		if len(p.senders) >= maxSenders {
			clear(p.senders)
		}
		a = JoinHostPort(string(from), src)
		p.senders[s] = a
	}
	return u.Demux(m, a)
}

// Session is an open channel from a local port to a remote host's port
// (the x-kernel session object).
type Session struct {
	p      *PortProtocol
	host   string
	local  uint16
	rport  uint16
	closed bool
}

// Push prepends the port header and sends m down the stack (the x-kernel
// xPush).
func (s *Session) Push(m *Message) error {
	if s.closed {
		return ErrClosed
	}
	var h [portHeaderLen]byte
	binary.BigEndian.PutUint16(h[0:2], s.local)
	binary.BigEndian.PutUint16(h[2:4], s.rport)
	m.Push(h[:])
	return s.p.down.push(s.host, m)
}

// Close releases the session: a later Push returns ErrClosed.
func (s *Session) Close() { s.closed = true }

// splitHostPort parses "host:port" (the last colon separates the port).
func splitHostPort(a Addr) (host string, port uint16, err error) {
	s := string(a)
	i := strings.LastIndexByte(s, ':')
	if i < 0 || i == len(s)-1 || i == 0 {
		return "", 0, fmt.Errorf("%w: %q", ErrBadAddress, s)
	}
	n, err := strconv.ParseUint(s[i+1:], 10, 16)
	if err != nil {
		return "", 0, fmt.Errorf("%w: %q: %v", ErrBadAddress, s, err)
	}
	return s[:i], uint16(n), nil
}

// JoinHostPort formats a host and port as an Addr.
func JoinHostPort(host string, port uint16) Addr {
	return Addr(host + ":" + strconv.FormatUint(uint64(port), 10))
}
