package gateway

import (
	"sort"

	"rtpb/internal/core"
)

// Frame is one broadcast delivery: a staleness certificate for one
// object, stamped with the gateway's per-object sequence number so
// consumers (and the coalescing path) can order images without parsing
// timestamps.
type Frame struct {
	// Group names the subscription this frame was fanned out through.
	Group string
	// Object names the replicated object.
	Object string
	// Seq is the gateway's per-object broadcast sequence; it increases
	// by one per certificate snapshot, so a session that sees Seq n has
	// observed every coalesced image up to n or fresher.
	Seq uint64
	// Cert is the bounded-staleness image: value, version, age at
	// snapshot, and the mode-effective δ_B admitted for the object.
	Cert core.Certificate
}

// Sink receives a session's frames. Deliver returning an error marks the
// session slow: subsequent frames are coalesced freshest-wins until a
// later flush succeeds. Close is called once when the session ends.
type Sink interface {
	Deliver(f Frame) error
	Close()
}

// Session is one connected client. All methods run on the gateway's
// executor.
type Session struct {
	id   uint64
	gw   *Gateway
	sink Sink

	groups  map[string]*Group
	lastSeq map[string]uint64 // per-object: freshest Seq delivered
	pending map[string]Frame  // per-object: freshest frame awaiting a slow sink
	slow    bool
	closed  bool
}

// ID is the gateway-scoped session identifier (monotone, never reused).
func (s *Session) ID() uint64 { return s.id }

// Close ends the session: membership is torn down and the sink closed.
func (s *Session) Close() { s.close(true) }

func (s *Session) close(drop bool) {
	if s.closed {
		return
	}
	s.closed = true
	for name, grp := range s.groups {
		grp.remove(s.id)
		delete(s.groups, name)
	}
	if drop {
		s.gw.dropSession(s)
	}
	s.sink.Close()
}

// offer hands the session one broadcast frame. The per-object sequence
// guard enforces monotone delivery — a coalesced session never observes
// stale-after-fresh — and a failing sink flips the session onto the
// freshest-wins slow path instead of queueing unboundedly.
func (s *Session) offer(f Frame) {
	if s.closed {
		return
	}
	if f.Seq <= s.lastSeq[f.Object] {
		return
	}
	if s.slow {
		s.pend(f)
		return
	}
	if err := s.sink.Deliver(f); err != nil {
		s.slow = true
		s.pend(f)
		return
	}
	s.lastSeq[f.Object] = f.Seq
	s.gw.stats.Delivered++
}

// pend coalesces a frame for a slow consumer: one slot per object, the
// freshest image wins, older pendings are simply replaced.
func (s *Session) pend(f Frame) {
	if old, ok := s.pending[f.Object]; !ok || f.Seq > old.Seq {
		s.pending[f.Object] = f
	}
	s.gw.stats.Coalesced++
}

// flush retries the pending set at the top of a broadcast tick. Success
// drains it (in sorted object order, for determinism) and returns the
// session to the fast path; the first failure keeps the remainder
// pending and the session slow.
func (s *Session) flush() {
	if s.closed || len(s.pending) == 0 {
		if !s.closed {
			s.slow = false
		}
		return
	}
	objs := make([]string, 0, len(s.pending))
	for o := range s.pending {
		objs = append(objs, o)
	}
	sort.Strings(objs)
	for _, o := range objs {
		f := s.pending[o]
		if f.Seq <= s.lastSeq[o] {
			delete(s.pending, o)
			continue
		}
		if err := s.sink.Deliver(f); err != nil {
			s.slow = true
			return
		}
		delete(s.pending, o)
		s.lastSeq[o] = f.Seq
		s.gw.stats.Delivered++
	}
	s.slow = false
}
