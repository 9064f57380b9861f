// Package gateway is the client-facing front tier of the RTPB stack: it
// terminates thousands of concurrent client sessions on one listener,
// routes writes through the sharded cluster's router, and broadcasts
// bounded-staleness object images — value, mode-effective δ_B, and
// last-update age, i.e. a staleness certificate — to *groups* of
// subscribed sessions. This is the paper's flagship sensor/display
// deployment at scale: few writers update replicated objects under
// temporal bounds, many readers consume certified images, and the
// replica pair never sees the read fan-out (one certificate read per
// object per broadcast tick serves every subscriber).
//
// The session/group/handler design follows lonng/nano: every session
// handler runs on one goroutine-owned event loop — the Clock's
// executor — so a group
// broadcast is a snapshot-then-write loop over a deterministic member
// order, not a per-session lock storm. Sessions carry the last sequence
// number they observed per object, so a slow consumer is coalesced
// (freshest-image-wins, never stale-after-fresh) instead of queued
// unboundedly.
//
// Backpressure is admission-aware end to end: when a shard's overload
// governor reports degraded or shed mode, or the cluster's placer
// rejects an admission, the gateway sheds new sessions and slow-paths
// existing ones — broadcast frames for the struggling shard are dropped
// at the gateway, so no certificate-read fan-in reaches a primary that
// is already shedding its own update schedule. Client writes are never
// dropped: the replica's own admission control and governor ladder
// remain the authority over write-side load.
package gateway

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
)

// Config assembles a Gateway.
type Config struct {
	// Clock is the executor every gateway mutation runs on (virtual in
	// tests and chaos, real in cmd/rtpbd).
	Clock clock.Clock
	// Backend is the replicated store the gateway fronts (a sharded
	// cluster, a single replica, or a remote control endpoint).
	Backend Backend
	// BroadcastPeriod is the group fan-out tick; defaults to 50ms.
	BroadcastPeriod time.Duration
	// OnEvent, when set, observes gateway state transitions (session
	// shed, shard slow-path enter/leave) — the chaos harness logs these
	// into its deterministic replay log.
	OnEvent func(format string, args ...any)
}

func (cfg *Config) normalize() error {
	if cfg.Clock == nil {
		return errors.New("gateway: Config.Clock is required")
	}
	if cfg.Backend == nil {
		return errors.New("gateway: Config.Backend is required")
	}
	if cfg.BroadcastPeriod <= 0 {
		cfg.BroadcastPeriod = 50 * time.Millisecond
	}
	return nil
}

// maxSessions caps concurrent sessions.
const maxSessions = 65536

// Admission errors returned by Connect.
var (
	// ErrSessionLimit reports the maxSessions cap.
	ErrSessionLimit = errors.New("gateway: session limit reached")
	// ErrShedding reports admission-aware shed mode: a backend shard's
	// governor is shedding, or the placer recently rejected.
	ErrShedding = errors.New("gateway: shedding new sessions (backend overloaded)")
	// ErrClosed reports an operation against a closed gateway.
	ErrClosed = errors.New("gateway: closed")
)

// Stats is the gateway's cumulative activity. Sessions/PeakSessions are
// gauges; everything else only grows.
type Stats struct {
	// Sessions and PeakSessions gauge the session table.
	Sessions     int
	PeakSessions int
	// Connects, Rejected and Closed count session admissions, shed or
	// capped connection attempts, and departures.
	Connects uint64
	Rejected uint64
	Closed   uint64
	// Broadcasts counts fan-out ticks; Delivered counts frames handed to
	// session sinks; Coalesced counts frames absorbed by freshest-wins
	// coalescing on slow consumers.
	Broadcasts uint64
	Delivered  uint64
	Coalesced  uint64
	// DroppedShed counts object-broadcasts skipped because the owning
	// shard was degraded or shedding — load the gateway kept off a
	// struggling primary.
	DroppedShed uint64
}

// Gateway is the front tier. Every method must run on the Config.Clock
// executor; callers on other goroutines post onto it.
type Gateway struct {
	cfg  Config
	tick *clock.Periodic

	sessions     map[uint64]*Session
	sessionOrder []uint64 // ascending ids: deterministic iteration
	nextSession  uint64

	groups     map[string]*Group
	groupOrder []string // sorted names: deterministic iteration

	seq       map[string]uint64 // per-object broadcast sequence
	certReads []uint64          // per-shard certificate fetch counts

	placeRejectUntil time.Time
	shedUntilLogged  bool

	stats  Stats
	closed bool
}

// New builds and starts a gateway: the broadcast tick begins on the
// first period boundary.
func New(cfg Config) (*Gateway, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:      cfg,
		sessions: make(map[uint64]*Session),
		groups:   make(map[string]*Group),
		seq:      make(map[string]uint64),
	}
	g.tick = clock.NewPeriodic(cfg.Clock, cfg.BroadcastPeriod, cfg.BroadcastPeriod, g.broadcast)
	return g, nil
}

// Stats snapshots the gateway's counters.
func (g *Gateway) Stats() Stats {
	st := g.stats
	st.Sessions = len(g.sessions)
	return st
}

// CertReads reports how many certificate fetches the broadcast loop has
// issued against one shard — the fan-in the gateway sends a primary,
// and the number that must stop growing while that shard sheds.
func (g *Gateway) CertReads(shard int) uint64 {
	if shard < 0 || shard >= len(g.certReads) {
		return 0
	}
	return g.certReads[shard]
}

// Connect admits one session, or sheds it. Admission is refused when the
// session cap is hit, when any backend shard's governor is in shed mode,
// or within the hold window after a placer rejection — the
// admission-aware half of the backpressure contract.
func (g *Gateway) Connect(sink Sink) (*Session, error) {
	if g.closed {
		return nil, ErrClosed
	}
	if len(g.sessions) >= maxSessions {
		g.stats.Rejected++
		return nil, ErrSessionLimit
	}
	if mode := g.Mode(); mode == Shed {
		g.stats.Rejected++
		if !g.shedUntilLogged {
			g.shedUntilLogged = true
			g.eventf("gateway: shedding new sessions (%s)", g.shedReason())
		}
		return nil, ErrShedding
	}
	g.nextSession++
	s := &Session{
		id:      g.nextSession,
		gw:      g,
		sink:    sink,
		groups:  make(map[string]*Group),
		lastSeq: make(map[string]uint64),
		pending: make(map[string]Frame),
	}
	g.sessions[s.id] = s
	g.sessionOrder = append(g.sessionOrder, s.id) // ids are monotone: stays sorted
	g.stats.Connects++
	if n := len(g.sessions); n > g.stats.PeakSessions {
		g.stats.PeakSessions = n
	}
	return s, nil
}

// Bind declares (or extends) a group's object set; members receive one
// certificate frame per bound object per broadcast tick. Objects are
// kept sorted and deduplicated so the fan-out order is deterministic.
func (g *Gateway) Bind(group string, objects ...string) *Group {
	grp := g.group(group)
	seen := make(map[string]bool, len(grp.objects)+len(objects))
	for _, o := range grp.objects {
		seen[o] = true
	}
	for _, o := range objects {
		if o != "" && !seen[o] {
			seen[o] = true
			grp.objects = append(grp.objects, o)
		}
	}
	sort.Strings(grp.objects)
	return grp
}

// Subscribe adds a session to a group (created empty if unknown).
func (g *Gateway) Subscribe(s *Session, group string) error {
	if g.closed {
		return ErrClosed
	}
	if s == nil || s.closed {
		return errors.New("gateway: subscribe on closed session")
	}
	grp := g.group(group)
	if _, ok := s.groups[group]; ok {
		return nil
	}
	s.groups[group] = grp
	grp.add(s)
	return nil
}

// Unsubscribe removes a session from a group.
func (g *Gateway) Unsubscribe(s *Session, group string) {
	if s == nil {
		return
	}
	if grp, ok := s.groups[group]; ok {
		delete(s.groups, group)
		grp.remove(s.id)
	}
}

// Groups lists every group in deterministic (sorted) order.
func (g *Gateway) Groups() []*Group {
	out := make([]*Group, 0, len(g.groupOrder))
	for _, name := range g.groupOrder {
		out = append(out, g.groups[name])
	}
	return out
}

// Write forwards one client write to the backend. Writes ride through
// regardless of gateway mode: shedding drops broadcast frames, never
// writes — the replica's admission control and governor own write-side
// backpressure.
func (g *Gateway) Write(name string, data []byte, done func(time.Duration, error)) error {
	if g.closed {
		return ErrClosed
	}
	return g.cfg.Backend.Write(name, data, done)
}

// Read returns the backend's current certificate for one object (the
// same unit broadcast ticks deliver), bypassing the shed ladder: a
// direct read is client-paced, not gateway-amplified.
func (g *Gateway) Read(name string) (core.Certificate, bool) {
	if g.closed {
		return core.Certificate{}, false
	}
	return g.cfg.Backend.Certificate(name)
}

// Place forwards an object admission to the backend's placer. A
// rejection arms the placement shed hold: the cluster just declared
// itself full, so new sessions are refused until the hold expires.
func (g *Gateway) Place(spec core.ObjectSpec) (int, core.Decision, error) {
	if g.closed {
		return -1, core.Decision{}, ErrClosed
	}
	pl, ok := g.cfg.Backend.(Placer)
	if !ok {
		return -1, core.Decision{}, errors.New("gateway: backend does not support placement")
	}
	idx, d, err := pl.Place(spec)
	if err != nil {
		// The cluster just told us it is full: refuse new sessions for
		// five broadcast periods.
		hold := 5 * g.cfg.BroadcastPeriod
		g.placeRejectUntil = g.cfg.Clock.Now().Add(hold)
		g.eventf("gateway: placement rejected (%v); shedding new sessions for %v", err, hold)
	}
	return idx, d, err
}

// Close stops the broadcast tick and closes every session.
func (g *Gateway) Close() {
	if g.closed {
		return
	}
	g.closed = true
	g.tick.Stop()
	for _, id := range g.sessionOrder {
		if s, ok := g.sessions[id]; ok {
			s.close(false)
		}
	}
	g.sessions = map[uint64]*Session{}
	g.sessionOrder = nil
}

// group returns (creating if needed) a named group.
func (g *Gateway) group(name string) *Group {
	if grp, ok := g.groups[name]; ok {
		return grp
	}
	grp := &Group{name: name, members: make(map[uint64]*Session)}
	g.groups[name] = grp
	g.groupOrder = append(g.groupOrder, name)
	sort.Strings(g.groupOrder)
	return grp
}

// dropSession unlinks a departing session from the gateway tables.
func (g *Gateway) dropSession(s *Session) {
	if _, ok := g.sessions[s.id]; !ok {
		return
	}
	delete(g.sessions, s.id)
	for i, id := range g.sessionOrder {
		if id == s.id {
			g.sessionOrder = append(g.sessionOrder[:i], g.sessionOrder[i+1:]...)
			break
		}
	}
	g.stats.Closed++
}

// broadcast is one fan-out tick: flush coalesced state toward recovered
// consumers, then snapshot each group's bound objects once and walk the
// member list. One certificate read per object serves every subscriber —
// the primary never sees the session count.
func (g *Gateway) broadcast() {
	if g.closed {
		return
	}
	g.stats.Broadcasts++
	for _, id := range g.sessionOrder {
		g.sessions[id].flush()
	}
	frames := make(map[string]*Frame) // per-tick cache: nil entry = dropped
	for _, name := range g.groupOrder {
		grp := g.groups[name]
		if len(grp.members) == 0 || len(grp.objects) == 0 {
			continue
		}
		for _, obj := range grp.objects {
			f, ok := g.frameFor(obj, frames)
			if !ok {
				continue
			}
			f.Group = name
			for _, sid := range grp.order {
				grp.members[sid].offer(f)
			}
			grp.stats.Frames++
		}
	}
	if g.Mode() != Shed {
		g.shedUntilLogged = false
	}
}

// frameFor snapshots one object's certificate for this tick, reading it
// at most once per tick across groups. An object whose owning shard is
// degraded or shedding is slow-pathed: the frame is dropped here and no
// read reaches that shard's primary.
func (g *Gateway) frameFor(obj string, cache map[string]*Frame) (Frame, bool) {
	if f, ok := cache[obj]; ok {
		if f == nil {
			return Frame{}, false
		}
		return *f, true
	}
	owner, ok := g.cfg.Backend.Owner(obj)
	if !ok {
		cache[obj] = nil
		return Frame{}, false
	}
	if h := g.cfg.Backend.Health(owner); h.Overloaded() || h.Shedding() {
		g.stats.DroppedShed++
		cache[obj] = nil
		return Frame{}, false
	}
	cert, ok := g.cfg.Backend.Certificate(obj)
	g.noteCertRead(owner)
	if !ok {
		cache[obj] = nil
		return Frame{}, false
	}
	g.seq[obj]++
	f := Frame{Object: obj, Seq: g.seq[obj], Cert: cert}
	cache[obj] = &f
	return f, true
}

func (g *Gateway) noteCertRead(shard int) {
	if shard < 0 {
		return
	}
	for len(g.certReads) <= shard {
		g.certReads = append(g.certReads, 0)
	}
	g.certReads[shard]++
}

func (g *Gateway) eventf(format string, args ...any) {
	if g.cfg.OnEvent != nil {
		g.cfg.OnEvent(format, args...)
	}
}

// shedReason names what put the gateway in shed mode (for event logs).
func (g *Gateway) shedReason() string {
	if g.cfg.Clock.Now().Before(g.placeRejectUntil) {
		return "placer rejection hold"
	}
	for i := 0; i < g.cfg.Backend.Shards(); i++ {
		if g.cfg.Backend.Health(i).Shedding() {
			return fmt.Sprintf("shard %d governor shedding", i)
		}
	}
	return "backend overloaded"
}
