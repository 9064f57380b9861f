package ctl

import (
	"fmt"
	"strconv"
	"strings"

	"rtpb/internal/clock"
	"rtpb/internal/shard"
)

// ShardServer exposes a sharded cluster on the same line protocol the
// single-pair Server speaks, with the routing surface on top:
//
//	PLACE <name> <size> <period> <deltaP> <deltaB>
//	  → OK shard <i> <id> <updatePeriod>   on admission somewhere
//	  → REJECT <reason...> [| suggest <deltaB>]
//	REGISTER <name> <size> <period> <deltaP> <deltaB>
//	  → alias for PLACE: registration against the cluster is placement
//	ROUTE <name>
//	  → OK shard <i> primary <addr> epoch <e> | ERR not placed
//	SHARDS
//	  → OK shards=<k> [| <i> primary=<addr> epoch=<e> objects=<n>
//	    utilization=<u> backupAlive=<bool> promotions=<p> degraded=<d>
//	    shed=<s>]...  (degraded/shed count objects the shard's overload
//	    governor currently holds below normal mode)
//	MIGRATE <name> <shard>
//	  → OK <name> shard <i> | ERR <reason...>
//	WRITE <name> <base64-value>
//	  → OK <latency>, forwarded to the owning shard's current primary
//	READ <name>
//	  → OK <base64-value> <version-rfc3339nano> age=<dur> delta=<dur>
//	    mode=<m> | ERR not found
//
// WRITE and READ re-resolve the owning shard on every call, so clients
// keep a single control connection across per-shard failovers.
type ShardServer struct {
	*lineServer
	cluster *shard.Cluster
}

// NewShardServer starts the cluster control listener on addr.
func NewShardServer(clk clock.Clock, cluster *shard.Cluster, addr string) (*ShardServer, error) {
	s := &ShardServer{cluster: cluster}
	ls, err := newLineServer(clk, addr, s.handle)
	if err != nil {
		return nil, err
	}
	s.lineServer = ls
	return s, nil
}

// handle executes a command on the executor; reply must be called
// exactly once (possibly later, for WRITE).
func (s *ShardServer) handle(line string, reply func(string)) {
	fields := strings.Fields(line)
	cmd := strings.ToUpper(fields[0])
	switch cmd {
	case "PLACE", "REGISTER":
		reply(register("PLACE", fields[1:], s.cluster.Place))
	case "ROUTE":
		reply(s.route(fields[1:]))
	case "SHARDS":
		reply(s.shards())
	case "MIGRATE":
		reply(s.migrate(fields[1:]))
	case "WRITE":
		write(fields[1:], reply, s.cluster.Write)
	case "READ":
		reply(read(fields[1:], s.cluster.Certificate))
	default:
		reply("ERR unknown command " + cmd)
	}
}

func (s *ShardServer) route(args []string) string {
	if len(args) != 1 {
		return "ERR usage: ROUTE <name>"
	}
	idx, ok := s.cluster.Route(args[0])
	if !ok {
		return "ERR not placed"
	}
	st := s.cluster.Statuses()[idx]
	return fmt.Sprintf("OK shard %d primary %s epoch %d", idx, st.PrimaryAddr, st.Epoch)
}

func (s *ShardServer) shards() string {
	var b strings.Builder
	statuses := s.cluster.Statuses()
	fmt.Fprintf(&b, "OK shards=%d", len(statuses))
	for _, st := range statuses {
		fmt.Fprintf(&b, " | %d primary=%s epoch=%d objects=%d utilization=%.4f backupAlive=%v promotions=%d degraded=%d shed=%d",
			st.Index, st.PrimaryAddr, st.Epoch, st.Objects, st.Utilization, st.BackupAlive, st.Promotions,
			st.Degraded, st.Shed)
	}
	return b.String()
}

func (s *ShardServer) migrate(args []string) string {
	if len(args) != 2 {
		return "ERR usage: MIGRATE <name> <shard>"
	}
	dst, err := strconv.Atoi(args[1])
	if err != nil {
		return "ERR bad shard index: " + err.Error()
	}
	if err := s.cluster.Migrate(args[0], dst); err != nil {
		return "ERR " + err.Error()
	}
	return fmt.Sprintf("OK %s shard %d", args[0], dst)
}
