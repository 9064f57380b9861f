package xkernel

import (
	"errors"
	"fmt"

	"rtpb/internal/clock"
)

// Addr is a protocol participant address. Its syntax is interpreted by
// each protocol layer: the network driver uses a host name, the port
// protocol uses "host:port", and so on — mirroring the x-kernel's
// participant lists.
type Addr string

// Upper receives messages demultiplexed upward by the protocol below it
// (the x-kernel xDemux up-call).
type Upper interface {
	// Demux delivers an inbound message whose headers below this layer
	// have already been stripped. from is the sender's address at the
	// lower protocol's level.
	Demux(m *Message, from Addr) error
}

// UpperFunc adapts a function to the Upper interface.
type UpperFunc func(m *Message, from Addr) error

// Demux implements Upper.
func (f UpperFunc) Demux(m *Message, from Addr) error { return f(m, from) }

// Session is an open communication channel through one protocol layer to
// a remote participant (the x-kernel session object).
type Session interface {
	// Push sends a message down through this session (the x-kernel xPush).
	Push(m *Message) error
	// Remote reports the participant address the session is open to.
	Remote() Addr
	// Close releases the session.
	Close() error
}

// Protocol is the x-kernel uniform protocol interface. Protocols are
// composed into a graph; each protocol talks to the one below it through
// Open/Push and to the one above through the Upper registered with
// OpenEnable.
type Protocol interface {
	// Name identifies the protocol in the graph configuration.
	Name() string
	// OpenEnable registers the upper protocol that passively accepts
	// inbound messages demuxed by this protocol (the x-kernel
	// xOpenEnable). At most one upper protocol may be enabled per
	// demux key; protocols with richer demultiplexing (e.g. ports)
	// provide their own enable calls and may reject this one.
	OpenEnable(u Upper) error
	// Open actively opens a session to the remote participant.
	Open(remote Addr) (Session, error)
	// Demux accepts a message arriving from the protocol below.
	Demux(m *Message, from Addr) error
	// Control performs a protocol-specific control operation (the
	// x-kernel xControl): opcode with an opaque argument, returning an
	// opaque result.
	Control(op string, arg any) (any, error)
}

// Errors shared by protocol implementations.
var (
	// ErrNoUpper is returned by Demux when no upper protocol is enabled
	// for the message.
	ErrNoUpper = errors.New("xkernel: no upper protocol enabled")
	// ErrBadAddress is returned by Open for a malformed participant
	// address.
	ErrBadAddress = errors.New("xkernel: bad participant address")
	// ErrUnknownControl is returned by Control for an unrecognized opcode.
	ErrUnknownControl = errors.New("xkernel: unknown control op")
	// ErrClosed is returned when using a closed session.
	ErrClosed = errors.New("xkernel: session closed")
)

// Graph is a configured instance of the x-kernel: a set of named
// protocols and their layering, built from a declarative configuration in
// the spirit of the x-kernel's graph.comp file.
type Graph struct {
	protocols map[string]Protocol
	below     map[string]string
}

// Factory instantiates a protocol given the protocol configured below it
// (nil for the graph's bottom) and free-form options.
type Factory func(below Protocol, opts map[string]string) (Protocol, error)

// Spec declares one node of the protocol graph.
type Spec struct {
	// Name is the protocol instance name.
	Name string
	// Below is the name of the protocol this one sits on; empty for the
	// bottom of the graph.
	Below string
	// Build instantiates the protocol.
	Build Factory
	// Options is passed to Build.
	Options map[string]string
}

// BuildGraph instantiates a protocol graph bottom-up from specs. Specs
// may appear in any order; BuildGraph resolves dependencies and rejects
// cycles, duplicate names, and references to missing protocols.
func BuildGraph(specs []Spec) (*Graph, error) {
	byName := make(map[string]Spec, len(specs))
	for _, s := range specs {
		if s.Name == "" {
			return nil, errors.New("xkernel: protocol spec with empty name")
		}
		if _, dup := byName[s.Name]; dup {
			return nil, fmt.Errorf("xkernel: duplicate protocol %q", s.Name)
		}
		byName[s.Name] = s
	}
	g := &Graph{
		protocols: make(map[string]Protocol, len(specs)),
		below:     make(map[string]string, len(specs)),
	}
	var build func(name string, visiting map[string]bool) (Protocol, error)
	build = func(name string, visiting map[string]bool) (Protocol, error) {
		if p, ok := g.protocols[name]; ok {
			return p, nil
		}
		if visiting[name] {
			return nil, fmt.Errorf("xkernel: cycle through protocol %q", name)
		}
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("xkernel: protocol %q not declared", name)
		}
		visiting[name] = true
		defer delete(visiting, name)
		var below Protocol
		if s.Below != "" {
			var err error
			below, err = build(s.Below, visiting)
			if err != nil {
				return nil, err
			}
		}
		p, err := s.Build(below, s.Options)
		if err != nil {
			return nil, fmt.Errorf("xkernel: build %q: %w", name, err)
		}
		if p.Name() != s.Name {
			return nil, fmt.Errorf("xkernel: factory for %q built protocol named %q", s.Name, p.Name())
		}
		g.protocols[name] = p
		g.below[name] = s.Below
		return p, nil
	}
	for _, s := range specs {
		if _, err := build(s.Name, map[string]bool{}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// NewStack assembles the paper's protocol graph (Figure 5) over tr and
// returns its port protocol, the layer RTPB is enabled on: uport → driver,
// or uport → frag → driver when mtu > 0, so objects larger than mtu
// replicate transparently (clk then runs the reassembly timeouts). Every
// host of one deployment must use the same stack shape.
func NewStack(tr Transport, clk clock.Clock, mtu int) (*PortProtocol, error) {
	specs := []Spec{
		{Name: "uport", Below: "driver", Build: PortFactory()},
		{Name: "driver", Build: DriverFactory(tr)},
	}
	if mtu > 0 {
		specs[0].Below = "frag"
		specs = append(specs, Spec{Name: "frag", Below: "driver", Build: FragFactory(FragOptions{MTU: mtu, Clock: clk})})
	}
	g, err := BuildGraph(specs)
	if err != nil {
		return nil, err
	}
	p, _ := g.Protocol("uport")
	return p.(*PortProtocol), nil
}

// Protocol looks up a protocol instance by name.
func (g *Graph) Protocol(name string) (Protocol, bool) {
	p, ok := g.protocols[name]
	return p, ok
}

// Below reports the name of the protocol configured below name.
func (g *Graph) Below(name string) string { return g.below[name] }

// Names returns the protocol names in the graph (unordered).
func (g *Graph) Names() []string {
	out := make([]string, 0, len(g.protocols))
	for n := range g.protocols {
		out = append(out, n)
	}
	return out
}
