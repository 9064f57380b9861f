package failover

import (
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
)

// TestRecoveryTimeBoundedByDetectorConfig measures the paper's noted cost
// of passive replication — "schemes based on passive replication tend to
// require longer recovery time since a backup must execute an explicit
// recovery algorithm" — and checks that the service-unavailability window
// is what the failure-detector configuration predicts: detection takes at
// most MaxMisses·Timeout + Interval, and promotion itself is immediate in
// virtual time.
func TestRecoveryTimeBoundedByDetectorConfig(t *testing.T) {
	f, hs := fabric(t, 101, netsim.LinkParams{Delay: 2 * time.Millisecond}, "primary", "backup")
	clk := f.Clock
	pPort, pEP := hs[0].Port, hs[0].EP
	bPort := hs[1].Port

	primary := replica(t, clk, pPort, core.RolePrimary, "backup:7000", ms(5))
	backup := replica(t, clk, bPort, core.RoleBackup, "primary:7000", ms(5))
	s := core.ObjectSpec{
		Name: "x", Size: 8, UpdatePeriod: ms(20),
		Constraint: temporal.ExternalConstraint{DeltaP: ms(30), DeltaB: ms(200)},
	}
	if d := primary.Register(s); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}

	dcfg := DetectorConfig{Interval: ms(40), Timeout: ms(25), MaxMisses: 3}
	var promoted *core.Replica
	var promotedAt time.Time
	det, err := NewDetector(clk, dcfg, backup.SendPing, func() {
		p2, perr := Promote(backup, PromoteOptions{
			Service:  "svc",
			SelfAddr: "backup:7000",
		})
		if perr != nil {
			t.Fatalf("promote: %v", perr)
		}
		promoted = p2
		promotedAt = clk.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	backup.OnPingAck = det.OnAck
	det.Start()

	// Steady state: the client writes continuously through the primary.
	active := func() *core.Replica {
		if promoted != nil {
			return promoted
		}
		return primary
	}
	var lastOK, firstAfter time.Time
	writer := clock.NewPeriodic(clk, 0, ms(20), func() {
		p := active()
		if !p.Running() {
			return
		}
		before := promoted == nil
		p.ClientWrite("x", []byte("v"), func(_ time.Duration, err error) {
			if err != nil {
				return
			}
			if before {
				lastOK = clk.Now()
			} else if firstAfter.IsZero() {
				firstAfter = clk.Now()
			}
		})
	})
	clk.RunFor(time.Second)

	crashAt := clk.Now()
	primary.Stop()
	pEP.SetDown(true)
	clk.RunFor(2 * time.Second)
	writer.Stop()

	if promoted == nil {
		t.Fatal("no promotion")
	}
	detection := promotedAt.Sub(crashAt)
	// Worst case: a ping answered just before the crash, the next ping
	// fires up to Interval later, then MaxMisses chained timeouts.
	bound := dcfg.Interval + time.Duration(dcfg.MaxMisses)*dcfg.Timeout + ms(10)
	if detection <= 0 || detection > bound {
		t.Fatalf("detection took %v, want (0, %v]", detection, bound)
	}
	if firstAfter.IsZero() {
		t.Fatal("service never resumed after takeover")
	}
	outage := firstAfter.Sub(lastOK)
	// The unavailability window is detection plus at most one client
	// period and the write's own service time.
	if outage > bound+ms(25) {
		t.Fatalf("service outage %v exceeds detection bound %v", outage, bound)
	}
}
