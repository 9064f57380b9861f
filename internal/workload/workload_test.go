package workload

import (
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/topo"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func testPrimary(t *testing.T) (*clock.SimClock, *core.Replica) {
	t.Helper()
	f, hs, err := topo.Build(1, netsim.LinkParams{}, "primary")
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewPrimary(core.Config{Clock: f.Clock, Port: hs[0].Port, Ell: ms(5)})
	if err != nil {
		t.Fatal(err)
	}
	return f.Clock, p
}

func TestClientWritesPeriodically(t *testing.T) {
	clk, p := testPrimary(t)
	if d := p.Register(core.ObjectSpec{
		Name: "x", Size: 16, UpdatePeriod: ms(40),
		Constraint: temporal.ExternalConstraint{DeltaP: ms(50), DeltaB: ms(200)},
	}); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	c := NewClient(clk, p, "x", 0, ms(40), 16)
	clk.RunFor(time.Second)
	c.Stop()
	clk.RunFor(ms(50))
	// Writes at 0,40,...,1000 → 26 writes.
	if c.writes != 26 {
		t.Fatalf("writes = %d, want 26", c.writes)
	}
	if c.stats.Count() != 26 {
		t.Fatalf("responses = %d, want 26", c.stats.Count())
	}
	if c.errs != 0 {
		t.Fatalf("errors = %d", c.errs)
	}
	if c.stats.Mean() <= 0 {
		t.Fatal("mean response not positive")
	}
}

func TestClientCountsErrorsForUnknownObject(t *testing.T) {
	clk, p := testPrimary(t)
	c := NewClient(clk, p, "ghost", 0, ms(40), 16)
	clk.RunFor(ms(200))
	c.Stop()
	if c.errs == 0 {
		t.Fatal("no errors recorded for unregistered object")
	}
	if c.stats.Count() != 0 {
		t.Fatal("failed writes produced response samples")
	}
}

func TestClientMinimumPayloadSize(t *testing.T) {
	clk, p := testPrimary(t)
	if d := p.Register(core.ObjectSpec{
		Name: "x", Size: 4, UpdatePeriod: ms(40),
		Constraint: temporal.ExternalConstraint{DeltaP: ms(50), DeltaB: ms(200)},
	}); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	// A size below the 8-byte counter stamp is padded up, not a panic.
	c := NewClient(clk, p, "x", 0, ms(40), 2)
	clk.RunFor(ms(100))
	c.Stop()
	v, _, ok := p.Value("x")
	if !ok || len(v) != 8 {
		t.Fatalf("value = %v (len %d), want 8-byte payload", v, len(v))
	}
}

func TestSpecsGenerator(t *testing.T) {
	specs := Specs(SpecParams{
		N:            5,
		Size:         64,
		ClientPeriod: ms(25),
		DeltaP:       ms(30),
		Window:       ms(60),
	})
	if len(specs) != 5 {
		t.Fatalf("len = %d", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Fatalf("duplicate name %q", s.Name)
		}
		names[s.Name] = true
		if s.Constraint.DeltaP != ms(30) || s.Constraint.DeltaB != ms(90) {
			t.Fatalf("constraint = %+v", s.Constraint)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("generated invalid spec: %v", err)
		}
	}
}
