package failover

import (
	"errors"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/temporal"
	"rtpb/internal/topo"
	"rtpb/internal/xkernel"
)

// fabric builds a simulated fabric with one host per name.
func fabric(t *testing.T, seed int64, link netsim.LinkParams, names ...string) (*topo.Fabric, []*topo.Host) {
	t.Helper()
	f, hs, err := topo.Build(seed, link, names...)
	if err != nil {
		t.Fatal(err)
	}
	return f, hs
}

// replica builds a replica in role on port, peered with peer.
func replica(t *testing.T, clk clock.Clock, port *xkernel.PortProtocol, role core.Role, peer xkernel.Addr, ell time.Duration) *core.Replica {
	t.Helper()
	r, err := core.NewReplica(core.Config{Clock: clk, Port: port, Peer: peer, Ell: ell}, role)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFullFailoverScenario exercises the complete Section 4.4 story:
// normal replication, primary crash, detection at the backup, promotion
// with state recovery and name-service update, standby client activation,
// recruitment of a fresh backup, and resumed replication to it.
func TestFullFailoverScenario(t *testing.T) {
	f, hs := fabric(t, 42, netsim.LinkParams{Delay: 2 * time.Millisecond}, "primary", "backup")
	clk := f.Clock
	pPort, pEP := hs[0].Port, hs[0].EP
	bPort := hs[1].Port
	ns := NewNameService()
	if err := ns.Set("plant", "primary:7000", 1); err != nil {
		t.Fatal(err)
	}

	primary := replica(t, clk, pPort, core.RolePrimary, "backup:7000", ms(5))
	backup := replica(t, clk, bPort, core.RoleBackup, "primary:7000", ms(5))

	// Backup-side failure detector over the real heartbeat messages.
	var promoted *core.Replica
	clientActivated := false
	det, err := NewDetector(clk, cfg(), backup.SendPing, func() {
		var perr error
		promoted, perr = Promote(backup, PromoteOptions{
			Service:        "plant",
			SelfAddr:       "backup:7000",
			Names:          ns,
			ActivateClient: func(*core.Replica) { clientActivated = true },
		})
		if perr != nil {
			t.Fatalf("promotion failed: %v", perr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	backup.OnPingAck = det.OnAck
	det.Start()

	s := core.ObjectSpec{
		Name:         "pressure",
		Size:         16,
		UpdatePeriod: ms(40),
		Constraint:   temporal.ExternalConstraint{DeltaP: ms(50), DeltaB: ms(250)},
	}
	if d := primary.Register(s); !d.Accepted {
		t.Fatalf("registration rejected: %s", d.Reason)
	}

	// Phase 1: normal replication.
	writer := clock.NewPeriodic(clk, 0, ms(40), func() {
		primary.ClientWrite("pressure", []byte("42psi"), nil)
	})
	clk.RunFor(time.Second)
	if v, _, ok := backup.Value("pressure"); !ok || string(v) != "42psi" {
		t.Fatalf("backup not replicating before crash: %q ok=%v", v, ok)
	}
	if promoted != nil {
		t.Fatal("backup promoted while primary healthy")
	}

	// Phase 2: the primary crashes.
	writer.Stop()
	primary.Stop()
	pEP.SetDown(true)
	clk.RunFor(time.Second)

	if promoted == nil {
		t.Fatal("backup never detected the primary's death")
	}
	if !clientActivated {
		t.Fatal("standby client application was not activated")
	}
	addr, epoch, _ := ns.Lookup("plant")
	if addr != "backup:7000" || epoch != 2 {
		t.Fatalf("name service = %v epoch %d, want backup:7000 epoch 2", addr, epoch)
	}
	// Recovered state is served by the new primary.
	if v, _, ok := promoted.Value("pressure"); !ok || string(v) != "42psi" {
		t.Fatalf("promoted primary lost state: %q ok=%v", v, ok)
	}

	// Phase 3: the new primary serves writes while awaiting a recruit.
	promoted.ClientWrite("pressure", []byte("43psi"), nil)
	clk.RunFor(ms(50))
	if v, _, ok := promoted.Value("pressure"); !ok || string(v) != "43psi" {
		t.Fatalf("promoted primary not serving writes: %q", v)
	}

	// Phase 4: recruit a replacement backup on a fresh node.
	r, err := f.Host("recruit")
	if err != nil {
		t.Fatal(err)
	}
	recruit := replica(t, clk, r.Port, core.RoleBackup, "backup:7000", ms(5))
	if err := Recruit(promoted, "recruit:7000"); err != nil {
		t.Fatal(err)
	}
	writer2 := clock.NewPeriodic(clk, 0, ms(40), func() {
		promoted.ClientWrite("pressure", []byte("44psi"), nil)
	})
	clk.RunFor(time.Second)
	writer2.Stop()

	if v, _, ok := recruit.Value("pressure"); !ok || string(v) != "44psi" {
		t.Fatalf("recruited backup not replicating: %q ok=%v", v, ok)
	}
	if recruit.Epoch() != 2 {
		t.Fatalf("recruit epoch = %d, want 2", recruit.Epoch())
	}
}

// TestPromoteFreshBackupWithoutData promotes a backup that never received
// any update: specs re-register, no values to seed.
func TestPromoteFreshBackupWithoutData(t *testing.T) {
	f, hs := fabric(t, 7, netsim.LinkParams{Delay: ms(2)}, "primary", "backup")
	clk := f.Clock
	pPort := hs[0].Port
	bPort := hs[1].Port

	primary := replica(t, clk, pPort, core.RolePrimary, "backup:7000", ms(5))
	backup := replica(t, clk, bPort, core.RoleBackup, "primary:7000", ms(5))
	s := core.ObjectSpec{
		Name: "x", Size: 8, UpdatePeriod: ms(40),
		Constraint: temporal.ExternalConstraint{DeltaP: ms(50), DeltaB: ms(250)},
	}
	if d := primary.Register(s); !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	clk.RunFor(ms(100)) // registration reaches backup; no writes happen
	primary.Stop()

	p2, err := Promote(backup, PromoteOptions{
		Service:  "svc",
		SelfAddr: "backup:7000",
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Objects() != 1 {
		t.Fatalf("promoted primary has %d objects, want 1", p2.Objects())
	}
	if _, _, ok := p2.Value("x"); ok {
		t.Fatal("promoted primary invented data for never-written object")
	}
	if p2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", p2.Epoch())
	}
}

// TestSupersededTakeoverRefusesToPromote pins the yield half of the
// takeover decision: when the directory already names a primary other
// than the one the backup shadows, Takeover returns ErrSuperseded and
// leaves the replica's role, epoch and the directory entry as they were.
func TestSupersededTakeoverRefusesToPromote(t *testing.T) {
	f, hs := fabric(t, 3, netsim.LinkParams{}, "b")
	backup := replica(t, f.Clock, hs[0].Port, core.RoleBackup, "dead:7000", ms(5))
	if got := backup.Upstream(); got != "dead:7000" {
		t.Fatalf("Upstream = %v, want dead:7000", got)
	}
	ns := NewNameService()
	if err := ns.Set("plant", "successor:7000", 2); err != nil {
		t.Fatal(err)
	}
	epoch := backup.Epoch()

	p, err := Takeover(backup, PromoteOptions{Service: "plant", SelfAddr: "b:7000", Names: ns})
	if !errors.Is(err, ErrSuperseded) || p != nil {
		t.Fatalf("Takeover = %v, %v; want nil, ErrSuperseded", p, err)
	}
	if want := "dead:7000 already superseded by successor:7000 (epoch 2); yielding"; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
	if backup.Role() != core.RoleBackup || backup.Epoch() != epoch || backup.Transitions() != 0 {
		t.Errorf("replica moved: role=%v epoch=%d transitions=%d", backup.Role(), backup.Epoch(), backup.Transitions())
	}
	if addr, e, _ := ns.Lookup("plant"); addr != "successor:7000" || e != 2 {
		t.Errorf("directory records %v@%d, want successor:7000@2", addr, e)
	}
}
