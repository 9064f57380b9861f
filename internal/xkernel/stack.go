package xkernel

import (
	"errors"

	"rtpb/internal/clock"
)

// Addr is a protocol participant address. The driver addresses a host
// name, and the port protocol "host:port".
type Addr string

// Upper receives messages demultiplexed upward by the port protocol (the
// x-kernel xDemux up-call).
type Upper interface {
	// Demux delivers an inbound message whose headers below this layer
	// have already been stripped. from is the sender's "host:port".
	Demux(m *Message, from Addr) error
}

// UpperFunc adapts a function to the Upper interface.
type UpperFunc func(m *Message, from Addr) error

// Demux implements Upper.
func (f UpperFunc) Demux(m *Message, from Addr) error { return f(m, from) }

// Errors shared by the layers.
var (
	// ErrNoUpper is the port protocol's demux result when no upper
	// protocol is enabled for the message's port; the datagram is dropped.
	ErrNoUpper = errors.New("xkernel: no upper protocol enabled")
	// ErrBadAddress is returned by OpenFrom for a malformed participant
	// address.
	ErrBadAddress = errors.New("xkernel: bad participant address")
	// ErrClosed is returned when using a closed session.
	ErrClosed = errors.New("xkernel: session closed")
)

// lower is a layer the port protocol pushes through: the fragmenter, or
// the driver when the stack has none.
type lower interface {
	push(host string, m *Message) error
}

// NewStack assembles the paper's protocol graph (Figure 5) over tr and
// returns its port protocol, the layer RTPB is enabled on: uport → driver,
// or uport → frag → driver when mtu > 0, so objects larger than mtu
// replicate transparently (clk then runs the reassembly timeouts). Every
// host of one deployment must use the same stack shape.
func NewStack(tr Transport, clk clock.Clock, mtu int) (*PortProtocol, error) {
	p := &PortProtocol{bindings: make(map[uint16]Upper), senders: make(map[sender]Addr)}
	d := &driver{tr: tr, up: p.demux}
	p.down = d
	if mtu > 0 {
		if clk == nil {
			return nil, errors.New("xkernel: frag protocol needs a clock")
		}
		f := &fragmenter{mtu: mtu, clk: clk, down: d, port: p, pending: make(map[fragKey]*fragBuffer)}
		p.down, d.up = f, f.demux
	}
	tr.SetReceiver(d.receive)
	return p, nil
}
