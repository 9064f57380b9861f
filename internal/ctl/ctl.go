// Package ctl is the client-facing control interface of the rtpbd daemon:
// a line-oriented TCP protocol playing the role the Mach IPC-based RTPB
// API plays in the paper (the client application is co-located with the
// primary and talks to the server through a local endpoint).
//
// Protocol (one request line, one response line, UTF-8):
//
//	REGISTER <name> <size> <period> <deltaP> <deltaB>
//	  → OK <id> <updatePeriod>       on admission
//	  → REJECT <reason...> [| suggest <deltaB>]
//	RELATE <nameI> <nameJ> <deltaIJ>
//	  → OK | REJECT <reason...>
//	WRITE <name> <base64-value>
//	  → OK <latency> | ERR <reason...>
//	READ <name>
//	  → OK <base64-value> <version-rfc3339nano> age=<dur> delta=<dur>
//	    mode=<normal|compressed|shed> theta=<dur> depth=<n> | ERR not found
//	  (age is the image's staleness at the read; delta the mode-effective
//	  admitted δ_B it is certified against; theta the clock uncertainty
//	  accumulated from the serving primary; depth the issuing replica's
//	  hop count from it)
//	STATUS
//	  → OK role=<primary|backup|observer> objects=<n> utilization=<u> epoch=<e>
//	    backupAlive=<bool> transitions=<n>
//	REPAIR
//	  → OK synced=<n> peers=<m> [| <addr> alive=<bool> syncing=<bool>
//	    observer=<bool> sent=<entries> skipped=<entries> retx=<chunks>
//	    completions=<c>]...
//	OBSERVERS
//	  → OK observers=<n> depth=<d> theta=<dur>
//	    [| <addr> alive=<bool> syncing=<bool>]...
//	  (n counts attached read-only subscribers; depth/theta are this
//	  replica's own chain position — 0/0s on a serving primary)
//	RECRUIT <addr>
//	  → OK <addr> | ERR <reason...>
//	LOGSTAT
//	  → OK segments=<n> prunable_segments=<n> prunable_epochs=<n>
//	    pruned=<n> snapshots=<n> last_snapshot_epoch=<e> epoch=<e>
//	    appended=<n> dropped=<n> source=<disk|network|none> restored=<n>
//	  → ERR durable persistence not enabled
//	SNAPSHOT
//	  → OK snapshots=<n> last_snapshot_epoch=<e> segments=<n> pruned=<n>
//	  → ERR durable persistence not enabled
//	CLOCK
//	  → OK sync=off
//	  → OK sync=on valid=false accepted=<n> rejected=<n>
//	  → OK sync=on valid=true offset=<d> theta=<d> rtt=<d> age=<d>
//	    accepted=<n> rejected=<n>
//
// Durations use Go syntax (40ms, 1s). Verbs are case-insensitive; a
// verb's extra arguments are ignored where its synopsis names none, a
// wrong argument count is answered "ERR usage: <synopsis>", and a verb
// outside the server's table "ERR unknown command <VERB>".
//
// These are the verbs NewServer serves for one replica. One Server type
// serves both surfaces with a verb table its constructor installs:
// NewGatewayServer serves the gateway's session and group verbs (see
// gateway.go).
package ctl

import (
	"bufio"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/temporal"
	"rtpb/internal/xkernel"
)

// NewServer starts the control listener for one replica on addr
// ("host:port", ":0" for ephemeral), serving the replica verbs above.
// Commands are posted onto the replica's clock executor, preserving the
// protocol's serial execution model.
func NewServer(clk clock.Clock, primary *core.Replica, addr string) (*Server, error) {
	s := replicaVerbs{primary}
	return listen(clk, addr, map[string]verb{
		"REGISTER": registerVerb("REGISTER", s.admit),
		"RELATE":   {usage: "RELATE <nameI> <nameJ> <deltaIJ>", args: 3, run: answer(s.relate)},
		"WRITE": writeVerb(func(name string, value []byte, done func(time.Duration, error)) error {
			primary.ClientWrite(name, value, done)
			return nil
		}),
		"READ":      readVerb(primary.Certificate),
		"STATUS":    {run: answer(s.status)},
		"REPAIR":    {run: answer(s.repair)},
		"OBSERVERS": {run: answer(s.observers)},
		"RECRUIT":   {usage: "RECRUIT <addr>", args: 1, run: answer(s.recruit)},
		"LOGSTAT":   {run: answer(s.logstat)},
		"SNAPSHOT":  {run: answer(s.snapshot)},
		"CLOCK":     {run: answer(s.clockStatus)},
	})
}

// replicaVerbs are the verbs NewServer serves on one replica.
type replicaVerbs struct {
	primary *core.Replica
}

// admit is REGISTER's admission on the one pair, which has no shard
// index; a rejection's error is its reason.
func (s replicaVerbs) admit(spec core.ObjectSpec) (int, core.Decision, error) {
	d := s.primary.Register(spec)
	if !d.Accepted {
		return -1, d, errors.New(d.Reason)
	}
	return -1, d, nil
}

func (s replicaVerbs) relate(args []string) string {
	delta, err := time.ParseDuration(args[2])
	if err != nil {
		return "ERR bad duration: " + err.Error()
	}
	d, err := s.primary.RegisterInterObject(temporal.InterObjectConstraint{
		I: args[0], J: args[1], Delta: delta,
	})
	if err != nil {
		return "REJECT " + d.Reason
	}
	return "OK"
}

func (s replicaVerbs) status([]string) string {
	return fmt.Sprintf("OK role=%s objects=%d utilization=%.4f epoch=%d backupAlive=%v transitions=%d",
		s.primary.Role(), s.primary.Objects(), s.primary.Utilization(), s.primary.Epoch(),
		s.primary.BackupAlive(), s.primary.Transitions())
}

// repair reports the primary's view of the repair cycle: the effective
// replication degree and each attached peer's anti-entropy progress.
func (s replicaVerbs) repair([]string) string {
	states := s.primary.PeerStates()
	var b strings.Builder
	fmt.Fprintf(&b, "OK synced=%d peers=%d", s.primary.SyncedPeers(), len(states))
	for _, st := range states {
		fmt.Fprintf(&b, " | %s alive=%v syncing=%v observer=%v sent=%d skipped=%d retx=%d completions=%d",
			st.Addr, st.Alive, st.Syncing, st.Observer,
			st.Transfer.EntriesSent, st.Transfer.EntriesSkipped,
			st.Transfer.ChunkRetransmits, st.Transfer.Completions)
	}
	return b.String()
}

// observers reports the read-only subscriber tier attached to this
// replica, plus the replica's own chain position (hop distance from the
// serving primary and the accumulated clock uncertainty it stamps on
// certificates — 0 and 0s on a serving primary).
func (s replicaVerbs) observers([]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "OK observers=%d depth=%d theta=%v",
		s.primary.ObserverPeers(), s.primary.ChainDepth(), s.primary.ChainTheta())
	for _, st := range s.primary.PeerStates() {
		if !st.Observer {
			continue
		}
		fmt.Fprintf(&b, " | %s alive=%v syncing=%v", st.Addr, st.Alive, st.Syncing)
	}
	return b.String()
}

// logstat reports the durable store's inventory — segment and snapshot
// counts, the portion pruning will reclaim, writer throughput — plus
// where this replica's state came from on its last start (disk-fast
// rejoin versus a full network transfer).
func (s replicaVerbs) logstat([]string) string {
	st, ok := s.primary.DurableStats()
	if !ok {
		return "ERR durable persistence not enabled"
	}
	return fmt.Sprintf("OK segments=%d prunable_segments=%d prunable_epochs=%d pruned=%d snapshots=%d last_snapshot_epoch=%d epoch=%d appended=%d dropped=%d source=%s restored=%d",
		st.Segments, st.PrunableSegments, st.PrunableEpochs, st.PrunedSegments,
		st.Snapshots, st.LastSnapshotEpoch, st.Epoch, st.Appended, st.Dropped,
		s.primary.RecoverySource(), s.primary.RestoredObjects())
}

// snapshot forces a durable snapshot now, waits for the writer to
// commit it, and reports the resulting inventory (including the prune
// the snapshot unlocked).
func (s replicaVerbs) snapshot([]string) string {
	st, ok := s.primary.ForceDurableSnapshot()
	if !ok {
		return "ERR durable persistence not enabled"
	}
	return fmt.Sprintf("OK snapshots=%d last_snapshot_epoch=%d segments=%d pruned=%d",
		st.Snapshots, st.LastSnapshotEpoch, st.Segments, st.PrunedSegments)
}

// clockStatus reports the replica's upstream clock-sync estimator:
// whether probing is enabled, and the current offset estimate with its
// explicit error bound θ. A primary that never probed (clock sync rides
// the backup-side heartbeat exchange) reports sync=on valid=false until
// it has been a backup with a completed probe.
func (s replicaVerbs) clockStatus([]string) string {
	rep, ok := s.primary.ClockSyncReport()
	if !ok {
		return "OK sync=off"
	}
	if !rep.Valid {
		return fmt.Sprintf("OK sync=on valid=false accepted=%d rejected=%d", rep.Accepted, rep.Rejected)
	}
	return fmt.Sprintf("OK sync=on valid=true offset=%v theta=%v rtt=%v age=%v accepted=%d rejected=%d",
		rep.Offset, rep.Theta, rep.RTT, rep.Age, rep.Accepted, rep.Rejected)
}

// recruit attaches a new backup peer; the join exchange (spec replay,
// digest, chunked state) runs asynchronously and REPAIR reports its
// progress.
func (s replicaVerbs) recruit(args []string) string {
	if err := s.primary.AddPeer(xkernel.Addr(args[0])); err != nil {
		return "ERR " + err.Error()
	}
	return "OK " + args[0]
}

// registerVerb is REGISTER, or PLACE on a gateway (name
// names the verb in its usage), rendering admit's decision on the spec.
// admit reports a rejection with an error: the REJECT line carries the
// decision's reason, else the error's, and the suggested δ_B. A shard
// index below 0 renders the single pair's OK line, without the shard.
func registerVerb(name string, admit func(core.ObjectSpec) (shard int, d core.Decision, err error)) verb {
	return verb{usage: name + " <name> <size> <period> <deltaP> <deltaB>", args: 5, run: answer(func(args []string) string {
		size, err := strconv.Atoi(args[1])
		if err != nil {
			return "ERR bad size: " + err.Error()
		}
		var durs [3]time.Duration
		for i, a := range args[2:] {
			d, err := time.ParseDuration(a)
			if err != nil {
				return "ERR bad duration: " + err.Error()
			}
			durs[i] = d
		}
		idx, d, err := admit(core.ObjectSpec{
			Name:         args[0],
			Size:         size,
			UpdatePeriod: durs[0],
			Constraint:   temporal.ExternalConstraint{DeltaP: durs[1], DeltaB: durs[2]},
		})
		if err != nil {
			reason := d.Reason
			if reason == "" {
				reason = err.Error()
			}
			if d.SuggestedDeltaB > 0 {
				return fmt.Sprintf("REJECT %s | suggest %v", reason, d.SuggestedDeltaB)
			}
			return "REJECT " + reason
		}
		if idx < 0 {
			return fmt.Sprintf("OK %d %v", d.ObjectID, d.UpdatePeriod)
		}
		return fmt.Sprintf("OK shard %d %d %v", idx, d.ObjectID, d.UpdatePeriod)
	})}
}

// writeVerb is WRITE: it decodes the value and submits it, replying with
// the submission's error, or later with the write's outcome.
func writeVerb(submit func(name string, value []byte, done func(time.Duration, error)) error) verb {
	return verb{usage: "WRITE <name> <base64-value>", args: 2, run: func(_ *lineConn, args []string, reply func(string)) {
		value, err := base64.StdEncoding.DecodeString(args[1])
		if err != nil {
			reply("ERR bad base64: " + err.Error())
			return
		}
		err = submit(args[0], value, func(lat time.Duration, err error) {
			if err != nil {
				reply("ERR " + err.Error())
				return
			}
			reply(fmt.Sprintf("OK %v", lat))
		})
		if err != nil {
			reply("ERR " + err.Error())
		}
	}}
}

// readVerb is READ, rendering the certificate lookup serves. The
// certificate suffix is core.Certificate's own rendering, so every serving
// surface reports the same age/δ_B/mode/θ/depth fields.
func readVerb(lookup func(name string) (core.Certificate, bool)) verb {
	return verb{usage: "READ <name>", args: 1, run: answer(func(args []string) string {
		cert, ok := lookup(args[0])
		if !ok {
			return "ERR not found"
		}
		return fmt.Sprintf("OK %s %s %s", base64.StdEncoding.EncodeToString(cert.Value),
			cert.Version.Format(time.RFC3339Nano), cert.Fields())
	})}
}

// Client is a minimal control-protocol client used by cmd/rtpbctl and the
// tests.
type Client struct {
	conn net.Conn
	rd   *bufio.Reader
}

// Dial connects to a control server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ctl: dial %q: %w", addr, err)
	}
	return &Client{conn: conn, rd: bufio.NewReader(conn)}, nil
}

// Do sends one command line and returns the reply line.
func (c *Client) Do(line string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, line); err != nil {
		return "", err
	}
	reply, err := c.rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(reply), nil
}

// ReadLine reads one server line — used after SUB to stream the
// gateway's asynchronous EVENT frames.
func (c *Client) ReadLine() (string, error) {
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// Write is a convenience wrapper for the WRITE command.
func (c *Client) Write(name string, value []byte) (string, error) {
	return c.Do("WRITE " + name + " " + base64.StdEncoding.EncodeToString(value))
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
