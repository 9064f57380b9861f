package main

import (
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/shard"
	"rtpb/internal/temporal"
)

// observerPoint is one (observers, chain depth) cell of the read-offload
// sweep: aggregate certificate-read throughput against the size and
// shape of a single shard's observer tier.
type observerPoint struct {
	// Observers is the tier size; ChainDepth arranges it into fan-out
	// chains of that length (1 = every observer directly on the primary).
	Observers  int `json:"observers"`
	ChainDepth int `json:"chain_depth"`
	// ReadsPerSec is the served certificate-read rate under the sweep's
	// fixed offered load and per-replica service capacity; Scaling is the
	// ratio against the primary-only baseline cell.
	ReadsPerSec float64 `json:"reads_per_sec"`
	Scaling     float64 `json:"scaling_vs_primary_only"`
	// ObserverShare is the fraction of served reads the observer tier
	// absorbed — the primary-offload claim, directly.
	ObserverShare float64 `json:"observer_share"`
	// P99AgeMs and MaxAgeMs summarize the served certificates' ages; the
	// acceptance bar keeps p99 within the admitted δ_B.
	P99AgeMs float64 `json:"p99_age_ms"`
	MaxAgeMs float64 `json:"max_age_ms"`
	// MaxServedDepth is the deepest chain position that served a read —
	// it must never exceed the configured chain depth.
	MaxServedDepth int `json:"max_served_depth"`
	// HonestyViolations counts served certificates that understated the
	// version stamp's true fabric-clock staleness (Age+θ below it) or
	// claimed freshness beyond δ_B. The bar is zero in every cell: more
	// observers may mean staler reads, never dishonest ones.
	HonestyViolations int `json:"honesty_violations"`
}

// observersSweep measures certificate-read scaling against observer
// count {0, 1, 4, 16} × chain depth {1, 2, 3} on a one-shard cluster
// under a steady write workload. The read model is a fixed offered load
// of readsOffered reads per tick, round-robined over the objects, each
// served by the next replica (primary or fresh observer) with service
// budget left in the tick — readCap reads per replica per tick, the
// same crude service-rate model for every cell, so the sweep isolates
// how far the tier stretches aggregate capacity. A read is only ever
// served off an observer whose certificate proves its bound
// (cert.Fresh), mirroring Shard.ObserverCertificate; everything else
// falls to the primary or is dropped. Every served certificate is
// audited against ground truth: version stamps originate on the
// primary's clock and the fabric shares one clock, so now−Version is
// the true staleness and Age+θ must never undercut it.
func observersSweep(seed int64, duration time.Duration) ([]observerPoint, error) {
	const (
		warmup       = 500 * time.Millisecond
		tick         = time.Millisecond
		readsOffered = 64 // offered reads per tick (64k/s)
		readCap      = 4  // per-replica service capacity per tick (4k/s)
		objects      = 4
		deltaB       = 120 * time.Millisecond
	)
	type cell struct{ observers, depth int }
	var cells []cell
	for _, n := range []int{0, 1, 4, 16} {
		depths := []int{1, 2, 3}
		if n == 0 {
			depths = []int{1} // no tier: depth is inert, one baseline cell
		}
		for _, d := range depths {
			cells = append(cells, cell{n, d})
		}
	}

	var points []observerPoint
	baseline := 0.0
	for _, cl := range cells {
		c, err := shard.NewCluster(shard.Config{
			Shards:             1,
			Seed:               seed,
			Observers:          cl.observers,
			ObserverChainDepth: cl.depth,
		})
		if err != nil {
			return nil, err
		}
		var names []string
		for i := 0; i < objects; i++ {
			name := fmt.Sprintf("obj%d", i)
			spec := core.ObjectSpec{
				Name:         name,
				Size:         64,
				UpdatePeriod: 20 * time.Millisecond,
				Constraint: temporal.ExternalConstraint{
					DeltaP: 20 * time.Millisecond,
					DeltaB: deltaB,
				},
			}
			if _, _, err := c.Place(spec); err != nil {
				c.Stop()
				return nil, fmt.Errorf("place %s: %w", name, err)
			}
			c.WriteEvery(name, spec.UpdatePeriod)
			names = append(names, name)
		}

		sh := c.Shard(0)
		var (
			recording      bool
			served         uint64
			observerServed uint64
			ages           []time.Duration
			maxServedDepth int
			honesty        int
		)
		reader := clock.NewPeriodic(c.Clock(), 0, tick, func() {
			if !recording {
				return
			}
			// One service budget per replica per tick; index 0 is the
			// primary, 1..N the chain-ordered observer tier.
			tier := sh.Observers()
			budget := make([]int, 1+len(tier))
			for i := range budget {
				budget[i] = readCap
			}
			now := c.Clock().Now()
			cursor := 0
			for r := 0; r < readsOffered; r++ {
				name := names[r%len(names)]
				for probe := 0; probe < len(budget); probe++ {
					s := (cursor + probe) % len(budget)
					if budget[s] == 0 {
						continue
					}
					var cert core.Certificate
					var ok bool
					if s == 0 {
						cert, ok = sh.Primary().Certificate(name)
					} else if obs := tier[s-1]; obs != nil && obs.Running() {
						cert, ok = obs.Certificate(name)
						ok = ok && cert.Fresh()
					}
					if !ok {
						continue
					}
					budget[s]--
					served++
					ages = append(ages, cert.Age)
					truth := now.Sub(cert.Version)
					if cert.Age+cert.Theta < truth {
						honesty++ // the certificate launders staleness
					}
					if truth > deltaB && cert.Fresh() {
						honesty++ // claims fresh beyond the admitted bound
					}
					if s > 0 {
						observerServed++
						if cert.Depth > maxServedDepth {
							maxServedDepth = cert.Depth
						}
					}
					cursor = (s + 1) % len(budget)
					break
				}
			}
		})
		c.RunFor(warmup)
		recording = true
		c.RunFor(duration)
		recording = false
		reader.Stop()
		c.StopWriters()
		c.Stop()

		p := observerPoint{
			Observers:         cl.observers,
			ChainDepth:        cl.depth,
			ReadsPerSec:       float64(served) / duration.Seconds(),
			P99AgeMs:          msOf(percentile(ages, 0.99)),
			MaxAgeMs:          msOf(percentile(ages, 1.0)),
			MaxServedDepth:    maxServedDepth,
			HonestyViolations: honesty,
		}
		if served > 0 {
			p.ObserverShare = float64(observerServed) / float64(served)
		}
		if cl.observers == 0 && cl.depth == 1 {
			baseline = p.ReadsPerSec
		}
		if baseline > 0 {
			p.Scaling = p.ReadsPerSec / baseline
		}
		points = append(points, p)
	}
	return points, nil
}

func (p observerPoint) cells(bool) []string {
	return []string{fmt.Sprint(p.Observers), fmt.Sprint(p.ChainDepth), fmt.Sprintf("%.1f", p.ReadsPerSec),
		fmt.Sprintf("%.2f", p.Scaling), fmt.Sprintf("%.3f", p.ObserverShare), fmt.Sprintf("%.3f", p.P99AgeMs),
		fmt.Sprintf("%.3f", p.MaxAgeMs), fmt.Sprint(p.MaxServedDepth), fmt.Sprint(p.HonestyViolations)}
}
