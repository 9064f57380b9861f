// Command rtpbctl drives a running rtpbd primary through its control
// interface: register objects, declare inter-object constraints, write
// and read values, and query status.
//
//	rtpbctl -addr 127.0.0.1:7777 register alt 64 40ms 50ms 200ms
//	rtpbctl -addr 127.0.0.1:7777 relate accel lift 60ms
//	rtpbctl -addr 127.0.0.1:7777 write alt "9000 ft"
//	rtpbctl -addr 127.0.0.1:7777 read alt
//	rtpbctl -addr 127.0.0.1:7777 status
//	rtpbctl -addr 127.0.0.1:7777 repair               # peer repair-cycle state
//	rtpbctl -addr 127.0.0.1:7777 observers           # observer tier and chain position
//	rtpbctl -addr 127.0.0.1:7777 recruit 10.0.0.9:7000
//	rtpbctl -addr 127.0.0.1:7777 logstat             # durable store inventory
//	rtpbctl -addr 127.0.0.1:7777 snapshot            # force a durable snapshot
//	rtpbctl -addr 127.0.0.1:7777 clock               # clock-sync estimate and θ
//	rtpbctl -addr 127.0.0.1:7777 bench alt 40ms 5s   # periodic writes
//
// Against a gateway endpoint (ctl.NewGatewayServer, rtpbd
// -gateway) write/read/register work the same, and the session/group
// surface appears:
//
//	rtpbctl -addr 127.0.0.1:7878 bind cockpit alt speed  # group's objects
//	rtpbctl -addr 127.0.0.1:7878 sub cockpit             # stream frames
//	rtpbctl -addr 127.0.0.1:7878 groups
//	rtpbctl -addr 127.0.0.1:7878 sessions
package main

import (
	"encoding/base64"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"rtpb/internal/ctl"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rtpbctl:", err)
		os.Exit(1)
	}
}

// column is one column of a k=v table: its header and the reply key it
// shows ("" for a segment's leading bare field, such as a peer address).
type column struct{ header, key string }

// subcommands is every rtpbctl verb: its word count with the verb (-n:
// at least n), its usage, and for a verb whose reply printTable renders,
// the columns of the reply's head and of its " | " rows.
var subcommands = map[string]struct {
	n          int
	usage      string
	head, rows []column
}{
	"register": {n: 6, usage: "register <name> <size> <period> <deltaP> <deltaB>"},
	"relate":   {n: 4, usage: "relate <nameI> <nameJ> <deltaIJ>"},
	"write":    {n: 3, usage: "write <name> <value>"},
	"read":     {n: 2, usage: "read <name>"},
	"status": {n: 1, usage: "status", head: []column{
		{"ROLE", "role"}, {"OBJECTS", "objects"}, {"UTILIZATION", "utilization"},
		{"EPOCH", "epoch"}, {"BACKUP", "backupAlive"}, {"TRANSITIONS", "transitions"}}},
	"repair": {n: 1, usage: "repair"},
	"observers": {n: 1, usage: "observers",
		head: []column{{"OBSERVERS", "observers"}, {"DEPTH", "depth"}, {"THETA", "theta"}},
		rows: []column{{"OBSERVER", ""}, {"ALIVE", "alive"}, {"SYNCING", "syncing"}}},
	"recruit": {n: 2, usage: "recruit <addr>"},
	// PRUNABLE segments and epochs are those the newest snapshot already
	// covers: what the next prune drops.
	"logstat": {n: 1, usage: "logstat", head: []column{
		{"SEGMENTS", "segments"}, {"PRUNABLE", "prunable_segments"}, {"PRUNABLE_EP", "prunable_epochs"},
		{"PRUNED", "pruned"}, {"SNAPSHOTS", "snapshots"}, {"SNAPEPOCH", "last_snapshot_epoch"},
		{"EPOCH", "epoch"}, {"APPENDED", "appended"}, {"DROPPED", "dropped"},
		{"SOURCE", "source"}, {"RESTORED", "restored"}}},
	"snapshot": {n: 1, usage: "snapshot"},
	"clock":    {n: 1, usage: "clock"},
	"bench":    {n: 4, usage: "bench <name> <period> <duration>"},
	"sub":      {n: 2, usage: "sub <group>"},
	"groups":   {n: 1, usage: "groups"},
	"sessions": {n: 1, usage: "sessions"},
	"bind":     {n: -3, usage: "bind <group> <object> [<object>...]"},
}

// usage is the error rtpbctl without a subcommand returns.
func usage() error {
	names := make([]string, 0, len(subcommands))
	for name := range subcommands {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Errorf("usage: rtpbctl [-addr host:port] <%s> args...", strings.Join(names, "|"))
}

func run(args []string) error {
	fs := flag.NewFlagSet("rtpbctl", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7777", "control address of an rtpbd replica or gateway listener")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return usage()
	}

	// Validate the subcommand before touching the network.
	sub := strings.ToLower(rest[0])
	want, known := subcommands[sub]
	if !known {
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
	if want.n < 0 && len(rest) < -want.n || want.n >= 0 && len(rest) != want.n {
		return fmt.Errorf("usage: %s", want.usage)
	}

	c, err := ctl.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()

	switch sub {
	case "sub":
		return subscribe(c, rest[1])
	case "bench":
		return bench(c, rest[1], rest[2], rest[3])
	case "write":
		rest[2] = base64.StdEncoding.EncodeToString([]byte(rest[2]))
	}
	reply, err := c.Do(strings.Join(append([]string{strings.ToUpper(sub)}, rest[1:]...), " "))
	if err != nil {
		return err
	}
	switch {
	case sub == "read":
		return printRead(reply)
	case want.head != nil || want.rows != nil:
		return printTable(reply, want.head, want.rows)
	}
	fmt.Println(reply)
	if strings.HasPrefix(reply, "ERR") || strings.HasPrefix(reply, "REJECT") {
		os.Exit(2)
	}
	return nil
}

// subscribe joins a gateway group and streams its broadcast frames (one
// certified object image per line) until the connection closes.
func subscribe(c *ctl.Client, group string) error {
	reply, err := c.Do("SUB " + group)
	if err != nil {
		return err
	}
	fmt.Println(reply)
	if !strings.HasPrefix(reply, "OK") {
		os.Exit(2)
	}
	for {
		line, err := c.ReadLine()
		if err != nil {
			return nil // connection closed: subscription over
		}
		fields := strings.Fields(line)
		// EVENT <group> <object> <seq> <b64> <version> age=... delta=... mode=... theta=... depth=...
		if len(fields) >= 6 && fields[0] == "EVENT" {
			if value, err := base64.StdEncoding.DecodeString(fields[4]); err == nil {
				fmt.Printf("%s %s seq=%s %q version=%s %s\n",
					fields[1], fields[2], fields[3], value, fields[5],
					strings.Join(fields[6:], " "))
				continue
			}
		}
		fmt.Println(line)
	}
}

// printTable renders a k=v reply, "OK k=v... [| <name> k=v...]...", as
// aligned tables: head's columns show the fields before the first " | "
// as one row, rows' columns one row per later segment. A reply that is
// not OK prints verbatim and exits 2.
func printTable(reply string, head, rows []column) error {
	if !strings.HasPrefix(reply, "OK ") {
		fmt.Println(reply)
		os.Exit(2)
	}
	segments := strings.Split(reply, " | ")
	if err := writeTable(head, segments[:1]); err != nil {
		return err
	}
	return writeTable(rows, segments[1:])
}

// writeTable prints a header and one row per segment, or nothing when
// there are no columns or no segments.
func writeTable(cols []column, segments []string) error {
	if len(cols) == 0 || len(segments) == 0 {
		return nil
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	cells := make([]string, len(cols))
	for i, col := range cols {
		cells[i] = col.header
	}
	fmt.Fprintln(w, strings.Join(cells, "\t"))
	for _, seg := range segments {
		kv := map[string]string{}
		for i, f := range strings.Fields(seg) {
			if k, v, ok := strings.Cut(f, "="); ok {
				kv[k] = v
			} else if i == 0 {
				kv[""] = f
			}
		}
		for i, col := range cols {
			cells[i] = kv[col.key]
		}
		fmt.Fprintln(w, strings.Join(cells, "\t"))
	}
	return w.Flush()
}

// printRead renders a READ reply: the value, its version and the
// staleness-certificate fields (age= delta= mode= theta= depth=).
func printRead(reply string) error {
	fields := strings.Fields(reply)
	if len(fields) >= 3 && fields[0] == "OK" {
		if value, err := base64.StdEncoding.DecodeString(fields[1]); err == nil {
			fmt.Printf("%q version=%s %s\n", value, fields[2], strings.Join(fields[3:], " "))
			return nil
		}
	}
	fmt.Println(reply)
	return nil
}

// bench issues periodic writes for a while and reports the response-time
// distribution seen by this client.
func bench(c *ctl.Client, name, periodStr, durStr string) error {
	period, err := time.ParseDuration(periodStr)
	if err != nil {
		return err
	}
	dur, err := time.ParseDuration(durStr)
	if err != nil {
		return err
	}
	deadline := time.Now().Add(dur)
	var latencies []time.Duration
	payload := []byte(fmt.Sprintf("bench-%d", time.Now().UnixNano()))
	for i := 0; time.Now().Before(deadline); i++ {
		start := time.Now()
		reply, err := c.Write(name, payload)
		if err != nil {
			return err
		}
		if !strings.HasPrefix(reply, "OK") {
			return fmt.Errorf("write %d failed: %s", i, reply)
		}
		latencies = append(latencies, time.Since(start))
		time.Sleep(time.Until(start.Add(period)))
	}
	if len(latencies) == 0 {
		return fmt.Errorf("no writes completed")
	}
	var total, worst time.Duration
	for _, l := range latencies {
		total += l
		if l > worst {
			worst = l
		}
	}
	fmt.Printf("writes=%d mean=%v max=%v\n",
		len(latencies), total/time.Duration(len(latencies)), worst)
	return nil
}
