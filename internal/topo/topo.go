// Package topo builds simulated deployments: one virtual clock, one
// netsim fabric on it, and per host the paper's protocol graph (Figure 5)
// on a fabric endpoint. It is the one place a simulated node is
// assembled; what runs on a host (replica, detector, durable store) stays
// with the caller. topo does not import internal/core, so core's own
// tests build their fabrics with it too.
package topo

import (
	"rtpb/internal/clock"
	"rtpb/internal/netsim"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// Fabric is a simulated network and the virtual clock that drives it.
type Fabric struct {
	// Clock is the deployment's virtual clock.
	Clock *clock.SimClock
	// Net is the fabric; seed drives its loss and jitter draws.
	Net *netsim.Network
}

// New builds a fabric on a fresh virtual clock with link as the default
// for every host pair.
func New(seed int64, link netsim.LinkParams) (*Fabric, error) {
	clk := clock.NewSim()
	net := netsim.New(clk, seed)
	if err := net.SetDefaultLink(link); err != nil {
		return nil, err
	}
	return &Fabric{Clock: clk, Net: net}, nil
}

// Build is New plus one Host per name, in order.
func Build(seed int64, link netsim.LinkParams, names ...string) (*Fabric, []*Host, error) {
	f, err := New(seed, link)
	if err != nil {
		return nil, nil, err
	}
	hs := make([]*Host, len(names))
	for i, name := range names {
		if hs[i], err = f.Host(name); err != nil {
			return nil, nil, err
		}
	}
	return f, hs, nil
}

// Host is one machine on the fabric.
type Host struct {
	// Name is the host's name on the fabric.
	Name string
	// EP is its network attachment (SetDown models a crash).
	EP *netsim.Endpoint
	// Port is the port protocol on top of its stack.
	Port *xkernel.PortProtocol
	// Addr is the address RTPB listens on: Name on the well-known port.
	Addr xkernel.Addr
	// Clk is the host's timebase over the fabric clock, transparent
	// until a clock fault perturbs it. Whatever runs on the host reads it.
	Clk *clock.SkewedClock
}

// Host attaches a machine named name: an endpoint, the uport → driver
// stack over it, and the host's clock.
func (f *Fabric) Host(name string) (*Host, error) {
	ep, err := f.Net.Endpoint(name)
	if err != nil {
		return nil, err
	}
	port, err := xkernel.NewStack(ep, f.Clock, 0)
	if err != nil {
		return nil, err
	}
	return &Host{Name: name, EP: ep, Port: port, Addr: xkernel.JoinHostPort(name, wire.Port),
		Clk: clock.NewSkewed(f.Clock)}, nil
}
