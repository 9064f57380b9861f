// Package xkernel is the protocol stack of the paper's x-kernel prototype
// (Figure 5), fixed to the one graph the paper runs: RTPB sits on a
// UDP-like port protocol, which sits on a network driver, with an
// optional fragmentation layer between the two. NewStack wires the three
// typed layers directly. The package keeps the x-kernel's layering,
// header formats, sessions and messages with efficient header push/pop;
// it does not keep the uniform protocol interface, the control operations
// or a configurable protocol graph. The RTPB protocol in internal/core is
// the anchor protocol enabled on the port protocol.
package xkernel

import "errors"

// ErrShortMessage is returned by Pop when the message holds fewer bytes
// than the requested header length.
var ErrShortMessage = errors.New("xkernel: message shorter than header")

// Message is a network message moving through the protocol graph. As in
// the x-kernel, protocols prepend headers on the way down (Push) and strip
// them on the way up (Pop). The implementation keeps the payload at the
// tail of one buffer with headroom at the front, so a Push by each layer
// is a copy of only that layer's header.
type Message struct {
	buf []byte
	off int
}

// defaultHeadroom leaves room for a typical stack of small headers
// without reallocating.
const defaultHeadroom = 64

// NewMessage builds a message whose current contents are payload.
func NewMessage(payload []byte) *Message {
	m := &Message{}
	m.Reset(payload)
	return m
}

// Reset makes a copy of payload the message's contents, reusing the
// buffer when it is large enough: a sender that keeps one message and
// Resets it per datagram sends without allocating.
func (m *Message) Reset(payload []byte) {
	n := defaultHeadroom + len(payload)
	if cap(m.buf) < n {
		m.buf = make([]byte, n)
	}
	m.buf, m.off = m.buf[:n], defaultHeadroom
	copy(m.buf[m.off:], payload)
}

// FromWire wraps bytes received from a driver as a message with no
// headroom (nothing will be pushed onto an inbound message).
func FromWire(b []byte) *Message {
	return &Message{buf: b, off: 0}
}

// Len reports the current message length (headers pushed so far plus
// payload).
func (m *Message) Len() int { return len(m.buf) - m.off }

// Bytes returns the current message contents. The slice aliases the
// message's internal buffer; drivers must copy it if they retain it.
func (m *Message) Bytes() []byte { return m.buf[m.off:] }

// Push prepends a header to the message.
func (m *Message) Push(header []byte) {
	if len(header) > m.off {
		grown := make([]byte, len(header)+defaultHeadroom+m.Len())
		n := copy(grown[len(header)+defaultHeadroom:], m.Bytes())
		m.buf = grown[:len(header)+defaultHeadroom+n]
		m.off = len(header) + defaultHeadroom
	}
	m.off -= len(header)
	copy(m.buf[m.off:], header)
}

// Pop strips an n-byte header from the front of the message and returns
// it. The returned slice is valid until the next Push.
func (m *Message) Pop(n int) ([]byte, error) {
	if n < 0 || m.Len() < n {
		return nil, ErrShortMessage
	}
	h := m.buf[m.off : m.off+n]
	m.off += n
	return h, nil
}
