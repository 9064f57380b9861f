package failover

import (
	"testing"
	"time"

	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
)

// TestRecruitCarriesSpecsAcrossDoubleFailover is the regression test for
// the spec-less placeholder bug: a backup recruited after the first
// failover learns every object only through the repair protocol (it
// never saw the original registrations), so the JoinAccept and the state
// chunks must carry full specs. Before the fix, its objects were
// nameless placeholders and a second failover silently dropped them.
func TestRecruitCarriesSpecsAcrossDoubleFailover(t *testing.T) {
	f, hs := fabric(t, 17, netsim.LinkParams{Delay: time.Millisecond}, "p0", "b1", "b2")
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
	primary0.ClientWrite("pressure", []byte("42psi"), nil)
	primary0.ClientWrite("flow", []byte("7lps"), nil)
	// The decoupled update tasks start one (admission-specialized) period
	// out; run long enough for both objects to replicate.
	clk.RunFor(300 * time.Millisecond)

	// First failover: p0 dies, b1 promotes.
	p0EP.SetDown(true)
	primary0.Stop()
	p1, err := Promote(backup1, PromoteOptions{
		Service:  "plant",
		SelfAddr: "b1:7000",
		Names:    ns,
	})
	if err != nil {
		t.Fatalf("first promotion: %v", err)
	}
	if p1.Epoch() != 2 {
		t.Fatalf("first promotion epoch = %d, want 2", p1.Epoch())
	}

	// Recruit b2 — a replica that never saw a Register message; the
	// chunked join exchange is its only source of specs and state.
	backup2 := replica(t, clk, b2Port, core.RoleBackup, "b1:7000", ms(2))
	if err := Recruit(p1, "b2:7000"); err != nil {
		t.Fatal(err)
	}
	clk.RunFor(500 * time.Millisecond)
	if !backup2.Joined() {
		t.Fatal("recruited backup never completed its join exchange")
	}
	if got := len(backup2.Specs()); got != len(specs) {
		t.Fatalf("recruit holds %d specs, want %d", got, len(specs))
	}

	// Second failover: b1 dies, b2 promotes. Its snapshot must carry the
	// specs the repair protocol delivered.
	b1EP.SetDown(true)
	p1.Stop()
	p2, err := Promote(backup2, PromoteOptions{
		Service:  "plant",
		SelfAddr: "b2:7000",
		Names:    ns,
	})
	if err != nil {
		t.Fatalf("second promotion: %v", err)
	}
	if p2.Epoch() != 3 {
		t.Fatalf("second promotion epoch = %d, want 3", p2.Epoch())
	}
	for _, s := range specs {
		if _, ok := p2.Spec(s.Name); !ok {
			t.Fatalf("object %q lost across the double failover", s.Name)
		}
		if _, _, ok := p2.Value(s.Name); !ok {
			t.Fatalf("object %q re-admitted without its replicated value", s.Name)
		}
	}
}

// TestConcurrentPromotionsMintDistinctEpochs drives two promotions
// against one directory from the same observed epoch: the loser of the
// Set race must re-derive its epoch above the recorded one instead of
// failing (or worse, serving under a duplicate epoch).
func TestConcurrentPromotionsMintDistinctEpochs(t *testing.T) {
	f, hs := fabric(t, 5, netsim.LinkParams{}, "b1", "b2")
	clk := f.Clock
	b1Port := hs[0].Port
	b2Port := hs[1].Port
	ns := NewNameService()
	if err := ns.Set("plant", "dead:7000", 1); err != nil {
		t.Fatal(err)
	}

	backup1 := replica(t, clk, b1Port, core.RoleBackup, "dead:7000", ms(2))
	backup2 := replica(t, clk, b2Port, core.RoleBackup, "dead:7000", ms(2))

	p1, err := Promote(backup1, PromoteOptions{
		Service:  "plant",
		SelfAddr: "b1:7000",
		Names:    ns,
	})
	if err != nil {
		t.Fatalf("first promotion: %v", err)
	}
	p2, err := Promote(backup2, PromoteOptions{
		Service:  "plant",
		SelfAddr: "b2:7000",
		Names:    ns,
	})
	if err != nil {
		t.Fatalf("second promotion must win a fresh epoch, got error: %v", err)
	}

	if p1.Epoch() == p2.Epoch() {
		t.Fatalf("both promotions minted epoch %d", p1.Epoch())
	}
	if p1.Epoch() != 2 || p2.Epoch() != 3 {
		t.Fatalf("epochs = %d, %d; want 2 and 3", p1.Epoch(), p2.Epoch())
	}
	addr, epoch, ok := ns.Lookup("plant")
	if !ok || addr != "b2:7000" || epoch != 3 {
		t.Fatalf("directory records %v@%d, want b2:7000@3", addr, epoch)
	}
}
