package failover

import (
	"testing"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
)

// TestChainedFailoverPromotesInPlace drives two takeovers back to back —
// crash p0, promote b1, crash b1, promote b2 — and pins the properties of
// the in-place role flip: each promotion returns the very replica it was
// handed (no copy), epochs strictly increase across the chain, every
// object keeps its admitted home (spec, schedulability, and replicated
// value all survive), and the new primary serves client writes
// immediately after each takeover.
func TestChainedFailoverPromotesInPlace(t *testing.T) {
	f, hs := fabric(t, 23, netsim.LinkParams{Delay: time.Millisecond}, "p0", "b1", "b2")
	clk := f.Clock
	p0Port, p0EP := hs[0].Port, hs[0].EP
	b1Port, b1EP := hs[1].Port, hs[1].EP
	b2Port := hs[2].Port
	ns := NewNameService()
	if err := ns.Set("plant", "p0:7000", 1); err != nil {
		t.Fatal(err)
	}

	primary0 := replica(t, clk, p0Port, core.RolePrimary, "b1:7000", ms(2))
	backup1 := replica(t, clk, b1Port, core.RoleBackup, "p0:7000", ms(2))

	specs := []core.ObjectSpec{
		{
			Name: "pressure", Size: 32, UpdatePeriod: ms(20),
			Constraint: temporal.ExternalConstraint{DeltaP: ms(20), DeltaB: ms(200)},
		},
		{
			Name: "flow", Size: 32, UpdatePeriod: ms(25),
			Constraint: temporal.ExternalConstraint{DeltaP: ms(25), DeltaB: ms(200)},
		},
	}
	for _, s := range specs {
		if d := primary0.Register(s); !d.Accepted {
			t.Fatalf("register %q: %s", s.Name, d.Reason)
		}
	}
	primary0.ClientWrite("pressure", []byte("p@1"), nil)
	primary0.ClientWrite("flow", []byte("f@1"), nil)
	clk.RunFor(300 * time.Millisecond)

	// First takeover: p0 dies, b1 flips to primary in place.
	p0EP.SetDown(true)
	primary0.Stop()
	p1, err := Promote(backup1, PromoteOptions{
		Service: "plant", SelfAddr: "b1:7000", Names: ns,
	})
	if err != nil {
		t.Fatalf("first promotion: %v", err)
	}
	if p1 != backup1 {
		t.Fatal("promotion built a new replica instead of flipping the backup in place")
	}
	if p1.Role() != core.RolePrimary || p1.Transitions() != 1 {
		t.Fatalf("after first takeover: role=%v transitions=%d, want primary/1",
			p1.Role(), p1.Transitions())
	}
	if p1.Epoch() != 2 {
		t.Fatalf("first takeover epoch = %d, want 2", p1.Epoch())
	}
	p1.ClientWrite("pressure", []byte("p@2"), nil)
	clk.RunFor(50 * time.Millisecond)
	if v, _, ok := p1.Value("pressure"); !ok || string(v) != "p@2" {
		t.Fatalf("first successor not serving writes: %q ok=%v", v, ok)
	}

	// Recruit b2 under the new primary; the join exchange is its only
	// source of specs and state.
	backup2 := replica(t, clk, b2Port, core.RoleBackup, "b1:7000", ms(2))
	if err := Recruit(p1, "b2:7000"); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(500 * time.Millisecond)
	if !backup2.Joined() {
		t.Fatal("recruited backup never completed its join exchange")
	}

	// Second takeover: b1 dies, b2 flips in place.
	b1EP.SetDown(true)
	p1.Stop()
	p2, err := Promote(backup2, PromoteOptions{
		Service: "plant", SelfAddr: "b2:7000", Names: ns,
	})
	if err != nil {
		t.Fatalf("second promotion: %v", err)
	}
	if p2 != backup2 {
		t.Fatal("second promotion built a new replica instead of flipping in place")
	}
	if p2.Role() != core.RolePrimary || p2.Transitions() != 1 {
		t.Fatalf("after second takeover: role=%v transitions=%d, want primary/1",
			p2.Role(), p2.Transitions())
	}
	if p2.Epoch() <= p1.Epoch() {
		t.Fatalf("epochs must strictly increase across the chain: %d then %d",
			p1.Epoch(), p2.Epoch())
	}
	addr, epoch, _ := ns.Lookup("plant")
	if addr != "b2:7000" || epoch != p2.Epoch() {
		t.Fatalf("directory records %v@%d, want b2:7000@%d", addr, epoch, p2.Epoch())
	}

	// No object lost its admitted home across two takeovers.
	if !p2.Feasible() {
		t.Fatal("surviving object set no longer schedulable")
	}
	for _, s := range specs {
		if _, ok := p2.Spec(s.Name); !ok {
			t.Fatalf("object %q lost its registration across the chain", s.Name)
		}
		if _, _, ok := p2.Value(s.Name); !ok {
			t.Fatalf("object %q lost its replicated value across the chain", s.Name)
		}
	}
	p2.ClientWrite("flow", []byte("f@3"), nil)
	clk.RunFor(50 * time.Millisecond)
	if v, _, ok := p2.Value("flow"); !ok || string(v) != "f@3" {
		t.Fatalf("second successor not serving writes: %q ok=%v", v, ok)
	}
}
