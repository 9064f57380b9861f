// Package netsim provides the datagram network substrate for RTPB. The
// paper's prototype ran over UDP on a campus LAN and its evaluation sweeps
// message-loss probability; Network reproduces that environment as a
// simulated fabric with a configurable per-link delay bound ℓ, jitter, and
// i.i.d. loss, driven deterministically by a clock.Clock. Endpoint
// implements xkernel.Transport, so the identical protocol graph runs over
// the simulation, and (via UDPTransport in this package) over real
// sockets.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"rtpb/internal/clock"
)

// LinkParams describes one directional link's quality of service.
type LinkParams struct {
	// Delay is the base propagation delay; with Jitter it bounds the
	// one-way latency by Delay+Jitter, the paper's ℓ.
	Delay time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter].
	Jitter time.Duration
	// LossProb is the probability an individual datagram is dropped.
	LossProb float64
	// DuplicateProb is the probability a datagram is delivered twice
	// (UDP permits duplication; the protocol must tolerate it).
	DuplicateProb float64
}

// Bound reports ℓ, the worst-case one-way delay of the link.
func (lp LinkParams) Bound() time.Duration { return lp.Delay + lp.Jitter }

// Validate checks the parameters.
func (lp LinkParams) Validate() error {
	switch {
	case lp.Delay < 0 || lp.Jitter < 0:
		return fmt.Errorf("netsim: negative delay/jitter %v/%v", lp.Delay, lp.Jitter)
	case lp.LossProb < 0 || lp.LossProb > 1:
		return fmt.Errorf("netsim: loss probability %v out of [0,1]", lp.LossProb)
	case lp.DuplicateProb < 0 || lp.DuplicateProb > 1:
		return fmt.Errorf("netsim: duplicate probability %v out of [0,1]", lp.DuplicateProb)
	}
	return nil
}

// Stats counts fabric-level events.
type Stats struct {
	// Sent counts datagrams handed to the fabric.
	Sent int
	// Delivered counts datagrams handed to a receiver (duplicates count).
	Delivered int
	// DroppedLoss counts datagrams dropped by link loss.
	DroppedLoss int
	// DroppedPartition counts datagrams dropped by a partition cut.
	DroppedPartition int
	// DroppedDown counts datagrams dropped because an endpoint was down.
	DroppedDown int
	// DroppedNoReceiver counts datagrams to hosts with no receiver set.
	DroppedNoReceiver int
}

// Network is a simulated datagram fabric.
type Network struct {
	clk         clock.Clock
	rng         *rand.Rand
	endpoints   map[string]*Endpoint
	links       map[[2]string]LinkParams
	cuts        map[[2]string]bool
	defaultLink LinkParams
	stats       Stats
}

// ErrDuplicateHost is returned when a host name is registered twice.
var ErrDuplicateHost = errors.New("netsim: duplicate host")

// New creates a fabric driven by clk. The seed makes loss and jitter
// deterministic for a given experiment configuration.
func New(clk clock.Clock, seed int64) *Network {
	return &Network{
		clk:       clk,
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: make(map[string]*Endpoint),
		links:     make(map[[2]string]LinkParams),
		cuts:      make(map[[2]string]bool),
	}
}

// SetDefaultLink sets the parameters used for host pairs with no explicit
// link configuration.
func (n *Network) SetDefaultLink(lp LinkParams) error {
	if err := lp.Validate(); err != nil {
		return err
	}
	n.defaultLink = lp
	return nil
}

// SetLink configures the directional link from one host to another.
func (n *Network) SetLink(from, to string, lp LinkParams) error {
	if err := lp.Validate(); err != nil {
		return err
	}
	n.links[[2]string{from, to}] = lp
	return nil
}

// SetLinkBoth configures both directions between two hosts at once, the
// common case for fault injection (a degraded cable degrades both ways).
func (n *Network) SetLinkBoth(a, b string, lp LinkParams) error {
	if err := n.SetLink(a, b, lp); err != nil {
		return err
	}
	return n.SetLink(b, a, lp)
}

// Link reports the effective parameters for the directional pair.
func (n *Network) Link(from, to string) LinkParams {
	if lp, ok := n.links[[2]string{from, to}]; ok {
		return lp
	}
	return n.defaultLink
}

// Endpoint registers a host on the fabric.
func (n *Network) Endpoint(host string) (*Endpoint, error) {
	if _, dup := n.endpoints[host]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateHost, host)
	}
	ep := &Endpoint{net: n, host: host}
	n.endpoints[host] = ep
	return ep, nil
}

// Partition makes both directions between two hosts drop every datagram.
// Cuts are tracked separately from link parameters, so faults can be
// injected and healed at runtime without disturbing explicit link
// configuration (loss, jitter, duplication survive the partition).
func (n *Network) Partition(a, b string) {
	n.PartitionOneWay(a, b)
	n.PartitionOneWay(b, a)
}

// PartitionOneWay cuts only the from→to direction, modelling an
// asymmetric failure (e.g. acknowledgements lost while data flows).
func (n *Network) PartitionOneWay(from, to string) {
	n.cuts[[2]string{from, to}] = true
}

// Heal removes the partition cut and any explicit link configuration
// between two hosts, restoring the default link in both directions.
func (n *Network) Heal(a, b string) {
	n.HealOneWay(a, b)
	n.HealOneWay(b, a)
}

// HealOneWay removes the cut and explicit configuration for one
// direction only.
func (n *Network) HealOneWay(from, to string) {
	delete(n.cuts, [2]string{from, to})
	delete(n.links, [2]string{from, to})
}

// Stats returns a snapshot of the fabric counters.
func (n *Network) Stats() Stats { return n.stats }

func (n *Network) send(from, to string, payload []byte) {
	n.stats.Sent++
	src, ok := n.endpoints[from]
	if !ok || src.down {
		n.stats.DroppedDown++
		return
	}
	if n.cuts[[2]string{from, to}] {
		n.stats.DroppedPartition++
		return
	}
	lp := n.Link(from, to)
	copies := 1
	if lp.LossProb > 0 && n.rng.Float64() < lp.LossProb {
		n.stats.DroppedLoss++
		return
	}
	if lp.DuplicateProb > 0 && n.rng.Float64() < lp.DuplicateProb {
		copies = 2
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	for c := 0; c < copies; c++ {
		delay := lp.Delay
		if lp.Jitter > 0 {
			delay += time.Duration(n.rng.Int63n(int64(lp.Jitter) + 1))
		}
		n.clk.Schedule(delay, func() {
			dst, ok := n.endpoints[to]
			if !ok || dst.recv == nil {
				n.stats.DroppedNoReceiver++
				return
			}
			if dst.down {
				n.stats.DroppedDown++
				return
			}
			n.stats.Delivered++
			dst.recv(from, buf)
		})
	}
}

// Endpoint is one host's attachment to the fabric; it implements
// xkernel.Transport.
type Endpoint struct {
	net    *Network
	host   string
	recv   func(from string, payload []byte)
	down   bool
	closed bool
}

// Send implements xkernel.Transport.
func (e *Endpoint) Send(to string, payload []byte) error {
	if e.closed {
		return fmt.Errorf("netsim: endpoint %q closed", e.host)
	}
	e.net.send(e.host, to, payload)
	return nil
}

// SetReceiver implements xkernel.Transport.
func (e *Endpoint) SetReceiver(fn func(from string, payload []byte)) {
	e.recv = fn
}

// LocalAddr implements xkernel.Transport.
func (e *Endpoint) LocalAddr() string { return e.host }

// Close implements xkernel.Transport.
func (e *Endpoint) Close() error {
	e.closed = true
	e.down = true
	return nil
}

// SetDown simulates a host crash (true) or recovery (false): a down host
// neither sends nor receives. Used by the failover experiments.
func (e *Endpoint) SetDown(down bool) { e.down = down }
