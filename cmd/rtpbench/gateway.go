package main

import (
	"fmt"
	"sort"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/gateway"
	"rtpb/internal/shard"
	"rtpb/internal/temporal"
)

// gatewayPoint is one (sessions, groups) cell of the front-tier fan-out
// sweep.
type gatewayPoint struct {
	// Sessions and Groups shape the subscriber population: Sessions
	// concurrent consumers spread round-robin over Groups groups of two
	// objects each.
	Sessions int `json:"sessions"`
	Groups   int `json:"groups"`
	// Broadcasts counts fan-out ticks inside the measurement interval.
	Broadcasts uint64 `json:"broadcasts"`
	// FanOutPerSec is delivered certificate frames per virtual second —
	// the gateway's aggregate broadcast throughput.
	FanOutPerSec float64 `json:"fanout_msgs_per_sec"`
	// P99AgeMs and MaxAgeMs summarize the delivered staleness
	// certificates: the age field of the frame at delivery time.
	P99AgeMs float64 `json:"p99_age_ms"`
	MaxAgeMs float64 `json:"max_age_ms"`
	// BoundViolations counts delivered frames whose certificate age
	// exceeded its admitted mode-effective bound — the acceptance bar is
	// zero on non-shed shards.
	BoundViolations int `json:"bound_violations"`
	// CertReadsPerTick is the fan-in the replica pair actually saw per
	// broadcast tick. The contract is one read per object per tick, so
	// this must track the object count, not the session count.
	CertReadsPerTick float64 `json:"cert_reads_per_tick"`
}

// ageCollector accumulates delivered-certificate ages once armed; the
// warmup interval before arming is discarded.
type ageCollector struct {
	recording  bool
	ages       []time.Duration
	violations int
}

func (c *ageCollector) record(cert core.Certificate) {
	if !c.recording {
		return
	}
	c.ages = append(c.ages, cert.Age)
	if cert.Age > cert.Bound {
		c.violations++
	}
}

// benchSink is the per-session delivery target: every session shares one
// collector, so the sweep sees the full fan-out stream.
type benchSink struct{ col *ageCollector }

func (s benchSink) Deliver(f gateway.Frame) error {
	s.col.record(f.Cert)
	return nil
}

func (s benchSink) Close() {}

// gatewaySweep measures front-tier broadcast fan-out against subscriber
// scale: sessions ∈ {100, 1k, 10k} crossed with group counts {1, 8},
// each group bound to two objects under a steady write workload on a
// two-shard cluster. Everything runs on the virtual clock, so each cell
// is a pure function of (seed, duration) — and the fan-in column
// documents the economy claim: 10k subscribers cost the primaries the
// same certificate-read rate as 100.
func gatewaySweep(seed int64, duration time.Duration) ([]gatewayPoint, error) {
	const (
		warmup          = 300 * time.Millisecond
		broadcastPeriod = 50 * time.Millisecond
		objectsPerGroup = 2
	)
	var points []gatewayPoint
	for _, sessions := range []int{100, 1000, 10000} {
		for _, groups := range []int{1, 8} {
			c, err := shard.NewCluster(shard.Config{Shards: 2, Seed: seed})
			if err != nil {
				return nil, err
			}
			gw, err := gateway.New(gateway.Config{
				Clock:           c.Clock(),
				Backend:         gateway.ClusterBackend{Cluster: c},
				BroadcastPeriod: broadcastPeriod,
			})
			if err != nil {
				c.Stop()
				return nil, err
			}
			// Two objects per group, written every update period; the
			// placer spreads them across both shards.
			totalObjects := 0
			for gi := 0; gi < groups; gi++ {
				var objs []string
				for oi := 0; oi < objectsPerGroup; oi++ {
					name := fmt.Sprintf("g%d-obj%d", gi, oi)
					spec := core.ObjectSpec{
						Name:         name,
						Size:         64,
						UpdatePeriod: 20 * time.Millisecond,
						Constraint: temporal.ExternalConstraint{
							DeltaP: 20 * time.Millisecond,
							DeltaB: 120 * time.Millisecond,
						},
					}
					if _, _, err := c.Place(spec); err != nil {
						gw.Close()
						c.Stop()
						return nil, fmt.Errorf("place %s: %w", name, err)
					}
					c.WriteEvery(name, spec.UpdatePeriod)
					objs = append(objs, name)
					totalObjects++
				}
				gw.Bind(fmt.Sprintf("g%d", gi), objs...)
			}
			col := &ageCollector{}
			for i := 0; i < sessions; i++ {
				s, err := gw.Connect(benchSink{col: col})
				if err != nil {
					gw.Close()
					c.Stop()
					return nil, fmt.Errorf("connect session %d: %w", i, err)
				}
				if err := gw.Subscribe(s, fmt.Sprintf("g%d", i%groups)); err != nil {
					gw.Close()
					c.Stop()
					return nil, err
				}
			}
			c.RunFor(warmup)
			startStats := gw.Stats()
			startReads := uint64(0)
			for i := 0; i < c.Shards(); i++ {
				startReads += gw.CertReads(i)
			}
			col.recording = true
			c.RunFor(duration)
			col.recording = false
			endStats := gw.Stats()
			endReads := uint64(0)
			for i := 0; i < c.Shards(); i++ {
				endReads += gw.CertReads(i)
			}
			c.StopWriters()

			ticks := endStats.Broadcasts - startStats.Broadcasts
			delivered := endStats.Delivered - startStats.Delivered
			p := gatewayPoint{
				Sessions:        sessions,
				Groups:          groups,
				Broadcasts:      ticks,
				FanOutPerSec:    float64(delivered) / duration.Seconds(),
				P99AgeMs:        msOf(percentile(col.ages, 0.99)),
				MaxAgeMs:        msOf(percentile(col.ages, 1.0)),
				BoundViolations: col.violations,
			}
			if ticks > 0 {
				p.CertReadsPerTick = float64(endReads-startReads) / float64(ticks)
			}
			// Sanity, not just reporting: the fan-in economy contract is
			// one certificate read per object per tick no matter how many
			// sessions subscribe.
			if ticks > 0 && endReads-startReads > ticks*uint64(totalObjects) {
				gw.Close()
				c.Stop()
				return nil, fmt.Errorf("fan-in leak: %d cert reads over %d ticks for %d objects",
					endReads-startReads, ticks, totalObjects)
			}
			points = append(points, p)
			gw.Close()
			c.Stop()
		}
	}
	return points, nil
}

// percentile returns the q-quantile of a duration sample (q in (0,1];
// 1.0 is the max). The sample is sorted in place.
func percentile(sample []time.Duration, q float64) time.Duration {
	if len(sample) == 0 {
		return 0
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	idx := int(q*float64(len(sample))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sample) {
		idx = len(sample) - 1
	}
	return sample[idx]
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (p gatewayPoint) cells(bool) []string {
	return []string{fmt.Sprint(p.Sessions), fmt.Sprint(p.Groups), fmt.Sprint(p.Broadcasts),
		fmt.Sprintf("%.1f", p.FanOutPerSec), fmt.Sprintf("%.3f", p.P99AgeMs), fmt.Sprintf("%.3f", p.MaxAgeMs),
		fmt.Sprint(p.BoundViolations), fmt.Sprintf("%.1f", p.CertReadsPerTick)}
}
