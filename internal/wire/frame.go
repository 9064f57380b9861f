package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
)

// This file implements multi-message framing: one datagram carrying a
// batch of complete RTPB messages, each length-prefixed (modeled on the
// batched packet composition of nano's codec). The paper's decoupled
// transmission window makes batching semantically free — only the
// freshest image per object matters per slot — so the primary's send
// path coalesces every update pending for one peer into a single framed
// datagram per transmission slot, collapsing the per-update datagram and
// allocator costs that otherwise cap throughput.
//
// Frame layout after the standard RTPB header (magic, version,
// KindFrame):
//
//	count   uint16
//	count × (length uint32, message bytes)
//
// where each message is a complete RTPB encoding including its own
// header. Frames never nest: a frame inside a frame is a decode error,
// which keeps DecodeFrame non-recursive and bounds decode depth at two.

// Frame is a batch of messages traveling in one datagram.
type Frame struct {
	// Messages are the framed messages in transmission order.
	Messages []Message
}

// ErrNestedFrame is returned when a frame contains another frame.
var ErrNestedFrame = errors.New("wire: nested frame")

// WireKind implements Message.
func (*Frame) WireKind() Kind { return KindFrame }

// walk is Frame's own field walk: its messages are complete encodings,
// each behind a 32-bit length, and they decode through Decode.
func (m *Frame) walk(c codec) codec {
	if c.r == nil {
		c.buf = binary.BigEndian.AppendUint16(c.buf, uint16(len(m.Messages)))
		for _, sub := range m.Messages {
			c.buf = appendFramed(c.buf, sub)
		}
		return c
	}
	var small [16][]byte // a typical frame's parts, on the stack
	parts := c.r.frame(small[:0])
	if c.r.err != nil {
		return c
	}
	m.Messages = make([]Message, 0, len(parts))
	for _, sub := range parts {
		msg, err := Decode(sub)
		if err != nil {
			c.r.err = err
			return c
		}
		m.Messages = append(m.Messages, msg)
	}
	return c
}

// appendFramed appends one length-prefixed complete message encoding.
func appendFramed(dst []byte, m Message) []byte {
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = AppendEncode(dst, m)
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// frame is the one frame walker (Frame.walk and Decoder use it): it
// appends the message encodings a frame body carries to dst, in order.
func (r *reader) frame(dst [][]byte) [][]byte {
	n := int(r.uint16())
	for i := 0; i < n && r.err == nil; i++ {
		// A forged length prefix cannot force an allocation: it is checked
		// against the remaining datagram (int64 so a 4 GiB prefix cannot
		// wrap a 32-bit int), and take only slices the input.
		length := r.uint32()
		if r.err == nil && int64(length) > int64(len(r.buf)) {
			r.err = ErrTruncated
		}
		sub := r.take(int(length))
		if r.err == nil && len(sub) >= headerLen && Kind(sub[3]) == KindFrame {
			// Refused before anything decodes it, so a nested-frame chain
			// cannot grow the stack.
			r.err = ErrNestedFrame
		}
		if r.err == nil {
			dst = append(dst, sub)
		}
	}
	return dst
}

// Decoder decodes inbound datagrams into storage it reuses, so an update
// decodes without allocating once the Decoder has grown. It is not safe
// for concurrent use.
type Decoder struct {
	parts   [][]byte
	updates []Update
	msgs    []Message
}

// Decode returns the messages datagram b carries, in order: a frame's
// batch, or b's one message. All are decoded before it returns, so one
// malformed message fails the datagram. Updates decode in place, their
// Payloads aliasing b; the result is valid until the next call, and only
// while b is. Other kinds decode as Decode does.
func (d *Decoder) Decode(b []byte) ([]Message, error) {
	if err := checkHeader(b); err != nil {
		return nil, err
	}
	d.parts = append(d.parts[:0], b)
	if Kind(b[3]) == KindFrame {
		r := reader{buf: b[headerLen:]}
		if d.parts = r.frame(d.parts[:0]); r.end() != nil {
			return nil, r.err
		}
	}
	d.updates = slices.Grow(d.updates[:0], len(d.parts))[:len(d.parts)]
	d.msgs = d.msgs[:0]
	for i, sub := range d.parts {
		var msg Message = &d.updates[i]
		var err error
		if checkHeader(sub) != nil || Kind(sub[3]) != KindUpdate {
			msg, err = Decode(sub)
		} else {
			r := reader{buf: sub[headerLen:], alias: true}
			d.updates[i].decode(&r)
			err = r.end()
		}
		if err != nil {
			return nil, err
		}
		d.msgs = append(d.msgs, msg)
	}
	return d.msgs, nil
}

// AppendFrame appends a framed encoding of msgs to dst and returns the
// extended slice. It always emits the frame wrapper, even for zero or one
// message; the send path's FrameBuilder is the adaptive form that emits a
// bare message when only one is pending.
func AppendFrame(dst []byte, msgs ...Message) []byte {
	f := Frame{Messages: msgs}
	return AppendEncode(dst, &f)
}

// DecodeFrame parses a datagram that may be a frame or a bare message and
// returns the messages it carries, in order: the frame's batch, or the
// single message itself. It is Decoder.Decode on a private copy of b, so
// the result does not alias b.
func DecodeFrame(b []byte) ([]Message, error) {
	var d Decoder
	return d.Decode(bytes.Clone(b))
}

// framePrefixLen is the RTPB header plus the 16-bit count.
const framePrefixLen = headerLen + 2

// FrameBuilder composes one outbound datagram incrementally with zero
// allocations in steady state: messages append into one reused buffer,
// and Datagram returns either the framed batch or — when exactly one
// message was appended — that message's bare encoding, so single-update
// slots stay byte-identical to the unbatched wire format.
//
// Builders are not safe for concurrent use: keep a long-lived builder
// per sender and Reset it between datagrams.
type FrameBuilder struct {
	buf   []byte
	count int
}

// NewFrameBuilder returns a ready builder with a pre-sized buffer.
func NewFrameBuilder() *FrameBuilder {
	b := &FrameBuilder{buf: make([]byte, 0, 2048)}
	b.Reset()
	return b
}

// Reset empties the builder, keeping its buffer.
func (b *FrameBuilder) Reset() {
	b.buf = b.buf[:0]
	b.buf = binary.BigEndian.AppendUint16(b.buf, Magic)
	b.buf = append(b.buf, Version, uint8(KindFrame), 0, 0)
	b.count = 0
}

// AppendEncoded appends one already-encoded message (a complete RTPB
// encoding including its header). The broadcast path uses it to encode an
// update once and frame it for several peers without re-encoding. It
// returns where its copy of enc starts, for SetUpdateSeq.
func (b *FrameBuilder) AppendEncoded(enc []byte) int {
	b.buf = binary.BigEndian.AppendUint32(b.buf, uint32(len(enc)))
	b.buf = append(b.buf, enc...)
	b.count++
	return len(b.buf) - len(enc)
}

// SetUpdateSeq rewrites in place the Seq of the Update AppendEncoded put at.
func (b *FrameBuilder) SetUpdateSeq(at int, seq uint64) {
	binary.BigEndian.PutUint64(b.buf[at+headerLen+8:], seq) // past Epoch and ObjectID
}

// Datagram finalizes and returns the datagram bytes: nil when nothing was
// appended, the single message's bare encoding when one was (so a lone
// update costs no frame overhead and stays compatible with the unframed
// format), or the frame with its count patched in. The slice aliases the
// builder's buffer and is valid until the next Reset.
func (b *FrameBuilder) Datagram() []byte {
	switch b.count {
	case 0:
		return nil
	case 1:
		return b.buf[framePrefixLen+4:]
	}
	binary.BigEndian.PutUint16(b.buf[headerLen:], uint16(b.count))
	return b.buf
}
