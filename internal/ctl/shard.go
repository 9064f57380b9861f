package ctl

import (
	"fmt"
	"strconv"
	"strings"

	"rtpb/internal/clock"
	"rtpb/internal/shard"
)

// NewShardServer starts the control listener for a sharded cluster on
// addr. It speaks the line protocol of the single-pair NewServer, with
// the routing surface on top:
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
//	    mode=<m> theta=<dur> depth=<n> | ERR not found
//
// WRITE and READ re-resolve the owning shard on every call, so clients
// keep a single control connection across per-shard failovers.
func NewShardServer(clk clock.Clock, cluster *shard.Cluster, addr string) (*Server, error) {
	s := clusterVerbs{cluster}
	place := registerVerb("PLACE", cluster.Place)
	return listen(clk, addr, map[string]verb{
		"PLACE":    place,
		"REGISTER": place,
		"ROUTE":    {usage: "ROUTE <name>", args: 1, run: answer(s.route)},
		"SHARDS":   {run: answer(s.shards)},
		"MIGRATE":  {usage: "MIGRATE <name> <shard>", args: 2, run: answer(s.migrate)},
		"WRITE":    writeVerb(cluster.Write),
		"READ":     readVerb(cluster.Certificate),
	})
}

// clusterVerbs are the verbs NewShardServer adds for a cluster.
type clusterVerbs struct {
	cluster *shard.Cluster
}

func (s clusterVerbs) route(args []string) string {
	idx, ok := s.cluster.Route(args[0])
	if !ok {
		return "ERR not placed"
	}
	st := s.cluster.Statuses()[idx]
	return fmt.Sprintf("OK shard %d primary %s epoch %d", idx, st.PrimaryAddr, st.Epoch)
}

func (s clusterVerbs) shards([]string) string {
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

func (s clusterVerbs) migrate(args []string) string {
	dst, err := strconv.Atoi(args[1])
	if err != nil {
		return "ERR bad shard index: " + err.Error()
	}
	if err := s.cluster.Migrate(args[0], dst); err != nil {
		return "ERR " + err.Error()
	}
	return fmt.Sprintf("OK %s shard %d", args[0], dst)
}
