// Package workload provides the synthetic clients and object-set
// generators used by the evaluation harness. The paper's client is a
// sensing application co-located with the primary that "continuously
// senses the environment and periodically sends updates"; Client
// reproduces it as a periodic writer with a configurable period and
// object size, recording per-write response times.
package workload

import (
	"encoding/binary"
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/temporal"
	"rtpb/internal/trace"
)

// Client periodically writes one object on a primary and records response
// times.
type Client struct {
	task   *clock.Periodic
	stats  trace.DurationStats
	writes int
	errs   int
}

// NewClient starts a periodic writer: every period it writes a size-byte
// payload (stamped with the write counter) to the named object.
func NewClient(clk clock.Clock, p *core.Replica, object string, offset, period time.Duration, size int) *Client {
	c := &Client{}
	if size < 8 {
		size = 8
	}
	payload := make([]byte, size)
	c.task = clock.NewPeriodic(clk, offset, period, func() {
		c.writes++
		binary.BigEndian.PutUint64(payload, uint64(c.writes))
		p.ClientWrite(object, payload, func(lat time.Duration, err error) {
			if err != nil {
				c.errs++
				return
			}
			c.stats.Add(lat)
		})
	})
	return c
}

// Stop halts the writer.
func (c *Client) Stop() { c.task.Stop() }

// SpecParams parameterizes a generated object set.
type SpecParams struct {
	// N is the number of objects.
	N int
	// Size is each object's size in bytes.
	Size int
	// ClientPeriod is each client's declared write period p_i.
	ClientPeriod time.Duration
	// DeltaP is δ_i^P for every object.
	DeltaP time.Duration
	// Window is δ_i = δ_i^B − δ_i^P, the primary-backup consistency
	// window the evaluation section sweeps.
	Window time.Duration
}

// Specs generates a homogeneous object set: obj0..objN-1 with identical
// size, client period, and constraints — the shape of the paper's
// experiments, which sweep the number of objects for a given window size.
func Specs(p SpecParams) []core.ObjectSpec {
	out := make([]core.ObjectSpec, p.N)
	for i := range out {
		out[i] = core.ObjectSpec{
			Name:         fmt.Sprintf("obj%03d", i),
			Size:         p.Size,
			UpdatePeriod: p.ClientPeriod,
			Constraint: temporal.ExternalConstraint{
				DeltaP: p.DeltaP,
				DeltaB: p.DeltaP + p.Window,
			},
		}
	}
	return out
}
