package ctl

import (
	"encoding/base64"
	"fmt"
	"strings"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/gateway"
)

// NewGatewayServer starts a gateway control listener on addr. The
// gateway must share the given clock (its pump). Each TCP connection is
// (lazily, on first SUB) one gateway session; broadcast frames arrive as
// asynchronous EVENT lines on the same connection:
//
//	SUB <group>
//	  → OK <group> members=<n> | ERR shedding... (admission-aware: a
//	    shedding backend refuses the session)
//	UNSUB <group>
//	  → OK <group> | ERR no session
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
//	    rejection arms the gateway's placement shed hold; REGISTER is
//	    an alias)
//	WRITE <name> <base64-value>
//	  → OK <latency> | ERR ...   (never shed by the gateway)
//	READ <name>
//	  → OK <base64-value> <version-rfc3339nano> age=<dur> delta=<dur>
//	    mode=<m> theta=<dur> depth=<n> | ERR not found
//
// Push frames (no reply expected; one per bound object per broadcast
// tick to each subscribed connection):
//
//	EVENT <group> <object> <seq> <base64-value> <version-rfc3339nano>
//	  age=<dur> delta=<dur> mode=<m> theta=<dur> depth=<n>
//
// A connection whose TCP send path backlogs sheds EVENT lines at the
// push bound; the gateway's freshest-wins coalescing then re-delivers
// only the newest image once the connection drains.
func NewGatewayServer(clk clock.Clock, gw *gateway.Gateway, addr string) (*Server, error) {
	s := &gatewayVerbs{clk: clk, gw: gw, sessions: make(map[*lineConn]*gateway.Session)}
	place := registerVerb("PLACE", gw.Place)
	return listen(clk, addr, map[string]verb{
		"SUB":      {usage: "SUB <group>", args: 1, run: s.sub},
		"UNSUB":    {usage: "UNSUB <group>", args: 1, run: s.unsub},
		"BIND":     {usage: "BIND <group> <object> [<object>...]", args: 2, atLeast: true, run: answer(s.bind)},
		"GROUPS":   {run: answer(s.groups)},
		"SESSIONS": {run: answer(s.sessionsStatus)},
		"PLACE":    place,
		"REGISTER": place,
		"WRITE":    writeVerb(gw.Write),
		"READ":     readVerb(gw.Read),
	})
}

// gatewayVerbs are the verbs NewGatewayServer serves on a gateway.
type gatewayVerbs struct {
	clk clock.Clock
	gw  *gateway.Gateway

	// sessions maps connections to their gateway sessions; touched only
	// on the clock executor.
	sessions map[*lineConn]*gateway.Session
}

// session returns the connection's gateway session, admitting one on
// first use. Admission can be refused: that is the gateway shedding.
func (s *gatewayVerbs) session(c *lineConn) (*gateway.Session, error) {
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

func (s *gatewayVerbs) sub(c *lineConn, args []string, reply func(string)) {
	sess, err := s.session(c)
	if err == nil {
		err = s.gw.Subscribe(sess, args[0])
	}
	if err != nil {
		reply("ERR " + err.Error())
		return
	}
	reply(fmt.Sprintf("OK %s members=%d", args[0], s.gw.Bind(args[0]).Members()))
}

func (s *gatewayVerbs) unsub(c *lineConn, args []string, reply func(string)) {
	sess, ok := s.sessions[c]
	if !ok {
		reply("ERR no session")
		return
	}
	s.gw.Unsubscribe(sess, args[0])
	reply("OK " + args[0])
}

func (s *gatewayVerbs) bind(args []string) string {
	grp := s.gw.Bind(args[0], args[1:]...)
	return fmt.Sprintf("OK %s objects=%d", args[0], len(grp.Objects()))
}

func (s *gatewayVerbs) groups([]string) string {
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

func (s *gatewayVerbs) sessionsStatus([]string) string {
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

func (k *connSink) Deliver(f gateway.Frame) error {
	return k.conn.Push(fmt.Sprintf("EVENT %s %s %d %s %s %s",
		f.Group, f.Object, f.Seq,
		base64.StdEncoding.EncodeToString(f.Cert.Value),
		f.Cert.Version.Format(time.RFC3339Nano), f.Cert.Fields()))
}

func (k *connSink) Close() {}
