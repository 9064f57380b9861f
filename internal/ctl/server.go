package ctl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"rtpb/internal/clock"
)

// This file is the control-socket transport and its one dispatch: a
// line-oriented TCP listener that posts each command onto a clock
// executor, looks its verb up in the server's verb table, checks the
// argument count, and writes the reply back. The constructors differ
// only in the table they install: replica verbs (NewServer) or gateway
// verbs (NewGatewayServer, gateway.go). The gateway verbs need two things
// from the transport, so every connection has them: a per-connection
// context (lineConn) a verb can bind state to, and an asynchronous push
// channel for server-initiated EVENT lines that must never block the
// executor (a slow consumer sheds pushes, it does not stall the pump).

// ErrPushBacklog reports a push dropped because the connection's
// outbound buffer is full — the signal a gateway session uses to enter
// its freshest-wins slow path.
var ErrPushBacklog = errors.New("ctl: push backlog full")

// pushBacklog is the per-connection bound on queued EVENT lines.
const pushBacklog = 64

// verb is one entry of a server's verb table.
type verb struct {
	// usage is the reply to a wrong argument count, after "ERR usage: ";
	// empty for a verb that ignores its arguments.
	usage string
	// args is the argument count usage names; with atLeast, the minimum.
	args    int
	atLeast bool
	// run executes the verb on the clock executor; it calls reply
	// exactly once, possibly later (WRITE answers when the write
	// completes).
	run func(c *lineConn, args []string, reply func(string))
}

// answer is the run of a verb that replies at once.
func answer(f func(args []string) string) func(*lineConn, []string, func(string)) {
	return func(_ *lineConn, args []string, reply func(string)) { reply(f(args)) }
}

// lineConn is one client connection's server-side context. Verbs (which
// run on the clock executor) may bind per-connection state via
// SetOnClose and stream EVENT lines with Push; both are safe against the
// reply path because all writes share one mutex.
type lineConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes reply and push writes

	push     chan string
	closed   chan struct{}
	closeOne sync.Once

	onClose func() // set by a verb on the executor; run once at teardown
}

func newLineConn(conn net.Conn) *lineConn {
	c := &lineConn{
		conn:   conn,
		push:   make(chan string, pushBacklog),
		closed: make(chan struct{}),
	}
	go c.pushLoop()
	return c
}

// Push enqueues one asynchronous line (the caller includes any EVENT
// framing). It never blocks: a full backlog returns ErrPushBacklog, so
// the executor-side caller can coalesce instead.
func (c *lineConn) Push(line string) error {
	select {
	case <-c.closed:
		return net.ErrClosed
	default:
	}
	select {
	case c.push <- line:
		return nil
	default:
		return ErrPushBacklog
	}
}

// SetOnClose registers a teardown hook, called exactly once after the
// connection's read loop exits (from the connection's goroutine; post to
// an executor if needed).
func (c *lineConn) SetOnClose(fn func()) { c.onClose = fn }

func (c *lineConn) writeLine(line string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := fmt.Fprintln(c.conn, line)
	return err
}

// pushLoop drains queued EVENT lines to the socket.
func (c *lineConn) pushLoop() {
	for {
		select {
		case line := <-c.push:
			if c.writeLine(line) != nil {
				c.conn.Close() // wake the read loop; teardown happens there
				return
			}
		case <-c.closed:
			return
		}
	}
}

func (c *lineConn) teardown() {
	c.closeOne.Do(func() {
		close(c.closed)
		c.conn.Close()
		if c.onClose != nil {
			c.onClose()
		}
	})
}

// Server is a control listener: it accepts connections, reads one
// command line at a time, runs it on the clock executor through its verb
// table, and writes the reply.
type Server struct {
	clk   clock.Clock
	ln    net.Listener
	verbs map[string]verb

	mu    sync.Mutex
	conns map[*lineConn]struct{}
	done  chan struct{}
}

// listen starts a control listener serving verbs on addr ("host:port",
// ":0" for ephemeral).
func listen(clk clock.Clock, addr string, verbs map[string]verb) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: listen %q: %w", addr, err)
	}
	s := &Server{
		clk:   clk,
		ln:    ln,
		verbs: verbs,
		conns: make(map[*lineConn]struct{}),
		done:  make(chan struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr reports the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and all client connections.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	<-s.done
	return err
}

func (s *Server) acceptLoop() {
	defer close(s.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		c := newLineConn(conn)
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serve(c)
		}()
	}
}

func (s *Server) serve(c *lineConn) {
	defer func() {
		c.teardown()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 64*1024), 2*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		reply := s.dispatch(c, line)
		if c.writeLine(reply) != nil {
			return
		}
	}
}

// dispatch runs one command on the clock executor and waits for its
// reply.
func (s *Server) dispatch(c *lineConn, line string) string {
	replyCh := make(chan string, 1)
	s.clk.Post(func() {
		s.handle(c, line, func(reply string) { replyCh <- reply })
	})
	select {
	case r := <-replyCh:
		return r
	case <-time.After(10 * time.Second):
		return "ERR control command timed out"
	}
}

// handle executes one non-empty command line on the executor: the verb
// is case-insensitive, and reply is called exactly once.
func (s *Server) handle(c *lineConn, line string, reply func(string)) {
	fields := strings.Fields(line)
	name, args := strings.ToUpper(fields[0]), fields[1:]
	v, ok := s.verbs[name]
	switch {
	case !ok:
		reply("ERR unknown command " + name)
	case v.usage != "" && (len(args) < v.args || !v.atLeast && len(args) != v.args):
		reply("ERR usage: " + v.usage)
	default:
		v.run(c, args, reply)
	}
}
