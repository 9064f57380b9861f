// Package active implements a minimal active (state-machine) replication
// service over the same protocol stack RTPB uses. It is the comparison
// baseline the paper's related-work section contrasts passive replication
// against, and the substrate for its "hybrid active/passive" future-work
// direction: "schemes based on active replication tend to have more
// overhead in responding to client requests since an agreement protocol
// must be performed to ensure atomic ordered delivery of messages to all
// replicas."
//
// The design is a sequencer-based atomic broadcast, the shape used by the
// real-time process-group systems the paper cites (MARS, RTCAST):
//
//   - a Sequencer replica receives client writes, assigns each a global
//     sequence number, and multicasts an Order to every Member;
//   - Members apply orders strictly in sequence (a hold-back queue covers
//     reordering) and acknowledge each;
//   - the Sequencer replies to the client only after every member has
//     acknowledged — atomic, ordered delivery — and retransmits unacked
//     orders on a timer, so message loss translates into client-visible
//     latency rather than inconsistency.
//
// That last property is exactly the trade the paper's RTPB makes in the
// opposite direction, and the experiments compare the two.
package active

import (
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/cpu"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// ActivePort is the well-known port the active-replication protocol is
// enabled on (distinct from RTPB's so both can share a stack).
const ActivePort uint16 = 7100

// retransmitInterval is how often unacked orders are re-multicast.
const retransmitInterval = 20 * time.Millisecond

// Config configures a Sequencer or Member.
type Config struct {
	// Clock drives all timers; required.
	Clock clock.Clock
	// Port is the port protocol to enable on; required.
	Port *xkernel.PortProtocol
	// Members are the member replicas' addresses (sequencer only).
	Members []xkernel.Addr
	// Sequencer is the sequencer's address (member only).
	Sequencer xkernel.Addr
}

func (c *Config) normalize() error {
	if c.Clock == nil {
		return fmt.Errorf("active: config needs a Clock")
	}
	if c.Port == nil {
		return fmt.Errorf("active: config needs a Port protocol")
	}
	return nil
}

type pendingOrder struct {
	order   *wire.Order
	waiting map[xkernel.Addr]bool
	done    func(latency time.Duration, err error)
	start   time.Time
	retry   *clock.Event
}

// Sequencer is the active-replication leader: it owns the total order.
type Sequencer struct {
	cfg     Config
	clk     clock.Clock
	proc    *cpu.Resource
	port    *xkernel.PortProtocol
	members map[xkernel.Addr]*xkernel.Session

	objects map[string]uint32
	byID    map[uint32]*objectState
	nextID  uint32

	nextSeq uint64
	pending map[uint64]*pendingOrder
	running bool
}

type objectState struct {
	name    string
	value   []byte
	version time.Time
	hasData bool
}

var _ xkernel.Upper = (*Sequencer)(nil)

// NewSequencer builds the leader replica.
func NewSequencer(cfg Config) (*Sequencer, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("active: sequencer needs at least one member")
	}
	s := &Sequencer{
		cfg:     cfg,
		clk:     cfg.Clock,
		proc:    cpu.New(cfg.Clock),
		port:    cfg.Port,
		members: make(map[xkernel.Addr]*xkernel.Session, len(cfg.Members)),
		objects: make(map[string]uint32),
		byID:    make(map[uint32]*objectState),
		pending: make(map[uint64]*pendingOrder),
		nextID:  1,
		running: true,
	}
	if err := cfg.Port.EnablePort(ActivePort, s); err != nil {
		return nil, err
	}
	for _, addr := range cfg.Members {
		sess, err := cfg.Port.OpenFrom(ActivePort, addr)
		if err != nil {
			s.Stop()
			return nil, fmt.Errorf("active: open member session: %w", err)
		}
		s.members[addr] = sess
	}
	return s, nil
}

// Stop releases the port binding and abandons pending orders.
func (s *Sequencer) Stop() {
	if !s.running {
		return
	}
	s.running = false
	s.port.DisablePort(ActivePort)
	for _, p := range s.pending {
		if p.retry != nil {
			p.retry.Cancel()
		}
	}
	for _, sess := range s.members {
		sess.Close()
	}
}

// Register declares an object. Active replication has no
// temporal-consistency admission control — every replica applies every
// write — which is precisely its cost.
func (s *Sequencer) Register(name string) (uint32, error) {
	if !s.running {
		return 0, fmt.Errorf("active: sequencer stopped")
	}
	if id, dup := s.objects[name]; dup {
		return id, nil
	}
	id := s.nextID
	s.nextID++
	s.objects[name] = id
	s.byID[id] = &objectState{name: name}
	return id, nil
}

// ClientWrite services one client write with atomic ordered delivery:
// done fires only after every member has acknowledged the order.
func (s *Sequencer) ClientWrite(name string, data []byte, done func(latency time.Duration, err error)) {
	finish := func(lat time.Duration, err error) {
		if done != nil {
			done(lat, err)
		}
	}
	if !s.running {
		finish(0, fmt.Errorf("active: sequencer stopped"))
		return
	}
	id, ok := s.objects[name]
	if !ok {
		finish(0, fmt.Errorf("active: unknown object %q", name))
		return
	}
	arrival := s.clk.Now()
	value := make([]byte, len(data))
	copy(value, data)
	// Active and RTPB pay the same costs (core's model), so the
	// experiments compare protocols, not cost constants.
	s.proc.Submit(cpu.Low, core.DefaultCosts().ClientOp, func() {
		o := s.byID[id]
		o.value = value
		o.version = arrival
		o.hasData = true
		s.nextSeq++
		p := &pendingOrder{
			order: &wire.Order{
				Seq:      s.nextSeq,
				ObjectID: id,
				Version:  arrival.UnixNano(),
				Payload:  value,
			},
			waiting: make(map[xkernel.Addr]bool, len(s.members)),
			done:    done,
			start:   arrival,
		}
		for addr := range s.members {
			p.waiting[addr] = true
		}
		s.pending[p.order.Seq] = p
		s.multicast(p)
	})
}

// multicast pays the per-member send cost and transmits the order, then
// arms the retransmission timer.
func (s *Sequencer) multicast(p *pendingOrder) {
	if !s.running {
		return
	}
	cost := time.Duration(len(p.waiting)) * core.DefaultCosts().UpdateSend
	s.proc.Submit(cpu.Low, cost, func() {
		if !s.running {
			return
		}
		encoded := wire.Encode(p.order)
		for addr := range p.waiting {
			if sess, ok := s.members[addr]; ok {
				_ = sess.Push(xkernel.NewMessage(encoded))
			}
		}
		p.retry = s.clk.Schedule(retransmitInterval, func() {
			if _, still := s.pending[p.order.Seq]; still {
				s.multicast(p)
			}
		})
	})
}

// Demux implements xkernel.Upper.
func (s *Sequencer) Demux(m *xkernel.Message, from xkernel.Addr) error {
	msg, err := wire.Decode(m.Bytes())
	if err != nil {
		return err
	}
	ack, ok := msg.(*wire.OrderAck)
	if !ok {
		return nil
	}
	p, ok := s.pending[ack.Seq]
	if !ok {
		return nil // duplicate ack after commit
	}
	delete(p.waiting, from)
	if len(p.waiting) > 0 {
		return nil
	}
	delete(s.pending, ack.Seq)
	if p.retry != nil {
		p.retry.Cancel()
	}
	if p.done != nil {
		p.done(s.clk.Now().Sub(p.start), nil)
	}
	return nil
}

// Member is an active-replication follower: it applies totally ordered
// writes and acknowledges each.
type Member struct {
	cfg     Config
	sess    *xkernel.Session
	applied uint64
	hold    map[uint64]*wire.Order
	objects map[uint32]*objectState
}

var _ xkernel.Upper = (*Member)(nil)

// NewMember builds a follower replica.
func NewMember(cfg Config) (*Member, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if cfg.Sequencer == "" {
		return nil, fmt.Errorf("active: member needs the sequencer's address")
	}
	m := &Member{
		cfg:     cfg,
		hold:    make(map[uint64]*wire.Order),
		objects: make(map[uint32]*objectState),
	}
	if err := cfg.Port.EnablePort(ActivePort, m); err != nil {
		return nil, err
	}
	sess, err := cfg.Port.OpenFrom(ActivePort, cfg.Sequencer)
	if err != nil {
		cfg.Port.DisablePort(ActivePort)
		return nil, fmt.Errorf("active: open sequencer session: %w", err)
	}
	m.sess = sess
	return m, nil
}

// Demux implements xkernel.Upper.
func (m *Member) Demux(msg *xkernel.Message, from xkernel.Addr) error {
	decoded, err := wire.Decode(msg.Bytes())
	if err != nil {
		return err
	}
	order, ok := decoded.(*wire.Order)
	if !ok {
		return nil
	}
	// Always ack — the sequencer retransmits until it hears us, so a
	// duplicate means our previous ack was lost.
	_ = m.sess.Push(xkernel.NewMessage(wire.Encode(&wire.OrderAck{Seq: order.Seq})))
	if order.Seq <= m.applied {
		return nil
	}
	m.hold[order.Seq] = order
	// Drain the hold-back queue in strict sequence order.
	for {
		next, ok := m.hold[m.applied+1]
		if !ok {
			return nil
		}
		delete(m.hold, m.applied+1)
		m.applied++
		o, exists := m.objects[next.ObjectID]
		if !exists {
			o = &objectState{}
			m.objects[next.ObjectID] = o
		}
		o.value = append(o.value[:0], next.Payload...)
		o.version = time.Unix(0, next.Version)
		o.hasData = true
	}
}
