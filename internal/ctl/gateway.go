package ctl

import (
	"encoding/base64"
	"fmt"
	"strings"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/gateway"
)

// GatewayServer exposes a gateway on the shared line protocol — the
// third consumer of the lineServer transport. Each TCP connection is
// (lazily, on first SUB) one gateway session; broadcast frames arrive as
// asynchronous EVENT lines on the same connection:
//
//	SUB <group>
//	  → OK <group> members=<n> | ERR shedding... (admission-aware: a
//	    shedding backend refuses the session)
//	UNSUB <group>
//	  → OK <group>
//	BIND <group> <object> [<object>...]
//	  → OK <group> objects=<n>   (declares the group's broadcast set)
//	GROUPS
//	  → OK groups=<n> [| <name> members=<m> objects=<o> frames=<f>]...
//	SESSIONS
//	  → OK sessions=<n> peak=<p> connects=<c> rejected=<r> closed=<d>
//	    mode=<normal|slow-path|shed> delivered=<n> coalesced=<n>
//	    droppedShed=<n> broadcasts=<b>
//	PLACE <name> <size> <period> <deltaP> <deltaB>
//	  → OK shard <i> <id> <updatePeriod> | REJECT <reason...> (a
//	    rejection arms the gateway's placement shed hold)
//	WRITE <name> <base64-value>
//	  → OK <latency> | ERR ...   (never shed by the gateway)
//	READ <name>
//	  → OK <base64-value> <version-rfc3339nano> age=<dur> delta=<dur>
//	    mode=<m> | ERR not found
//
// Push frames (no reply expected; one per bound object per broadcast
// tick to each subscribed connection):
//
//	EVENT <group> <object> <seq> <base64-value> <version-rfc3339nano>
//	  age=<dur> delta=<dur> mode=<m>
//
// A connection whose TCP send path backlogs sheds EVENT lines at the
// push bound; the gateway's freshest-wins coalescing then re-delivers
// only the newest image once the connection drains.
type GatewayServer struct {
	*lineServer
	clk clock.Clock
	gw  *gateway.Gateway

	// sessions maps connections to their gateway sessions; touched only
	// on the clock executor.
	sessions map[*lineConn]*gateway.Session
}

// NewGatewayServer starts a gateway control listener on addr. The
// gateway must share the given clock (its pump).
func NewGatewayServer(clk clock.Clock, gw *gateway.Gateway, addr string) (*GatewayServer, error) {
	s := &GatewayServer{clk: clk, gw: gw, sessions: make(map[*lineConn]*gateway.Session)}
	ls, err := newLineConnServer(clk, addr, s.handle)
	if err != nil {
		return nil, err
	}
	s.lineServer = ls
	return s, nil
}

func (s *GatewayServer) handle(c *lineConn, line string, reply func(string)) {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "SUB":
		reply(s.sub(c, fields[1:]))
	case "UNSUB":
		reply(s.unsub(c, fields[1:]))
	case "BIND":
		reply(s.bind(fields[1:]))
	case "GROUPS":
		reply(s.groups())
	case "SESSIONS":
		reply(s.sessionsStatus())
	case "PLACE", "REGISTER":
		reply(register("PLACE", fields[1:], s.gw.Place))
	case "WRITE":
		write(fields[1:], reply, s.gw.Write)
	case "READ":
		reply(read(fields[1:], s.gw.Read))
	default:
		reply("ERR unknown command " + cmd)
	}
}

// session returns the connection's gateway session, admitting one on
// first use. Admission can be refused: that is the gateway shedding.
func (s *GatewayServer) session(c *lineConn) (*gateway.Session, error) {
	if sess, ok := s.sessions[c]; ok {
		return sess, nil
	}
	sess, err := s.gw.Connect(&connSink{conn: c})
	if err != nil {
		return nil, err
	}
	s.sessions[c] = sess
	c.SetOnClose(func() {
		s.clk.Post(func() {
			if cur, ok := s.sessions[c]; ok && cur == sess {
				delete(s.sessions, c)
				sess.Close()
			}
		})
	})
	return sess, nil
}

func (s *GatewayServer) sub(c *lineConn, args []string) string {
	if len(args) != 1 {
		return "ERR usage: SUB <group>"
	}
	sess, err := s.session(c)
	if err != nil {
		return "ERR " + err.Error()
	}
	if err := s.gw.Subscribe(sess, args[0]); err != nil {
		return "ERR " + err.Error()
	}
	grp := s.gw.Bind(args[0])
	return fmt.Sprintf("OK %s members=%d", args[0], grp.Members())
}

func (s *GatewayServer) unsub(c *lineConn, args []string) string {
	if len(args) != 1 {
		return "ERR usage: UNSUB <group>"
	}
	sess, ok := s.sessions[c]
	if !ok {
		return "ERR no session"
	}
	s.gw.Unsubscribe(sess, args[0])
	return "OK " + args[0]
}

func (s *GatewayServer) bind(args []string) string {
	if len(args) < 2 {
		return "ERR usage: BIND <group> <object> [<object>...]"
	}
	grp := s.gw.Bind(args[0], args[1:]...)
	return fmt.Sprintf("OK %s objects=%d", args[0], len(grp.Objects()))
}

func (s *GatewayServer) groups() string {
	groups := s.gw.Groups()
	var b strings.Builder
	fmt.Fprintf(&b, "OK groups=%d", len(groups))
	for _, grp := range groups {
		st := grp.Stats()
		fmt.Fprintf(&b, " | %s members=%d objects=%d frames=%d",
			grp.Name(), grp.Members(), len(grp.Objects()), st.Frames)
	}
	return b.String()
}

func (s *GatewayServer) sessionsStatus() string {
	st := s.gw.Stats()
	return fmt.Sprintf("OK sessions=%d peak=%d connects=%d rejected=%d closed=%d mode=%s delivered=%d coalesced=%d droppedShed=%d broadcasts=%d",
		st.Sessions, st.PeakSessions, st.Connects, st.Rejected, st.Closed,
		s.gw.Mode(), st.Delivered, st.Coalesced, st.DroppedShed, st.Broadcasts)
}

// connSink adapts a lineConn to the gateway Sink: frames become EVENT
// lines on the connection's bounded push queue. A full queue returns the
// error that flips the session onto the freshest-wins slow path.
type connSink struct {
	conn *lineConn
}

func (k *connSink) Deliver(f Frame) error {
	return k.conn.Push(fmt.Sprintf("EVENT %s %s %d %s %s %s",
		f.Group, f.Object, f.Seq,
		base64.StdEncoding.EncodeToString(f.Cert.Value),
		f.Cert.Version.Format(time.RFC3339Nano), f.Cert.Fields()))
}

func (k *connSink) Close() {}

// Frame re-exports the gateway frame type for sink implementations.
type Frame = gateway.Frame
