package main

import (
	"fmt"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/shard"
	"rtpb/internal/temporal"
)

// shardPoint is one shard count in the capacity-vs-shard-count sweep.
type shardPoint struct {
	// Shards is K, the number of primary-backup groups.
	Shards int `json:"shards"`
	// Offered and Admitted count the identical objects offered to the
	// placer and the ones some shard scheduled.
	Offered  int `json:"offered"`
	Admitted int `json:"admitted"`
	// WritesPerSec is the aggregate accepted client write rate across
	// all admitted objects, per second of virtual time.
	WritesPerSec float64 `json:"writes_per_sec"`
	// MeanUtilization is the mean per-shard planned CPU utilization.
	MeanUtilization float64 `json:"mean_utilization"`
}

// shardSweep measures cluster capacity against shard count: the same
// object set — sized to saturate a single pair almost immediately — is
// offered to clusters of K=1,2,4,8 groups, and each cluster then runs a
// full write workload on whatever it admitted. Everything is on the
// virtual clock, so the sweep is a pure function of (seed, duration).
func shardSweep(seed int64, duration time.Duration) ([]shardPoint, error) {
	const offered = 40
	specs := make([]core.ObjectSpec, offered)
	for i := range specs {
		specs[i] = core.ObjectSpec{
			Name:         fmt.Sprintf("obj%d", i),
			Size:         64,
			UpdatePeriod: 5 * time.Millisecond,
			Constraint: temporal.ExternalConstraint{
				DeltaP: 5 * time.Millisecond,
				DeltaB: 14 * time.Millisecond,
			},
		}
	}
	var points []shardPoint
	for _, k := range []int{1, 2, 4, 8} {
		c, err := shard.NewCluster(shard.Config{Shards: k, Seed: seed})
		if err != nil {
			return nil, err
		}
		admitted := 0
		for _, spec := range specs {
			if _, _, err := c.Place(spec); err != nil {
				continue
			}
			admitted++
			c.WriteEvery(spec.Name, spec.UpdatePeriod)
		}
		c.RunFor(duration)
		c.StopWriters()
		util := 0.0
		for _, st := range c.Statuses() {
			util += st.Utilization
		}
		points = append(points, shardPoint{
			Shards:          k,
			Offered:         offered,
			Admitted:        admitted,
			WritesPerSec:    float64(c.TotalWrites()) / duration.Seconds(),
			MeanUtilization: util / float64(k),
		})
		c.Stop()
	}
	return points, nil
}

func (p shardPoint) cells(bool) []string {
	return []string{fmt.Sprint(p.Shards), fmt.Sprint(p.Offered), fmt.Sprint(p.Admitted),
		fmt.Sprintf("%.1f", p.WritesPerSec), fmt.Sprintf("%.3f", p.MeanUtilization)}
}
