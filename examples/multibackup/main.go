// Multibackup: the paper's future-work extensions in one run — a primary
// replicating to TWO backups, a mixed object table where one object uses
// the hybrid active/passive path (client writes wait for backup acks),
// online removal of a failed backup, and recruitment of a replacement.
//
//	go run ./examples/multibackup
package main

import (
	"fmt"
	"log"
	"time"

	"rtpb"
	"rtpb/internal/topo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	f, hs, err := topo.Build(33, rtpb.LinkParams{Delay: 2 * time.Millisecond, Jitter: time.Millisecond},
		"primary", "backupA", "backupB")
	if err != nil {
		return err
	}
	clk, p, a, b := f.Clock, hs[0], hs[1], hs[2]

	primary, err := rtpb.NewPrimary(rtpb.Config{
		Clock: clk,
		Port:  p.Port,
		Peers: []rtpb.Addr{a.Addr, b.Addr},
		Ell:   5 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	backupA, err := rtpb.NewBackup(rtpb.Config{Clock: clk, Port: a.Port, Peer: p.Addr, Ell: 5 * time.Millisecond})
	if err != nil {
		return err
	}
	backupB, err := rtpb.NewBackup(rtpb.Config{Clock: clk, Port: b.Port, Peer: p.Addr, Ell: 5 * time.Millisecond})
	if err != nil {
		return err
	}
	_ = backupA

	// A plain telemetry object and a critical setpoint: the setpoint's
	// writes are acknowledged by every live backup before the client
	// proceeds (hybrid active/passive).
	plain := rtpb.ObjectSpec{
		Name: "telemetry", Size: 32, UpdatePeriod: 40 * time.Millisecond,
		Constraint: rtpb.ExternalConstraint{DeltaP: 50 * time.Millisecond, DeltaB: 250 * time.Millisecond},
	}
	critical := plain
	critical.Name = "setpoint"
	critical.Critical = true
	for _, s := range []rtpb.ObjectSpec{plain, critical} {
		if d := primary.Register(s); !d.Accepted {
			return fmt.Errorf("%s rejected: %s", s.Name, d.Reason)
		}
	}
	clk.RunFor(50 * time.Millisecond)

	var plainLat, critLat time.Duration
	primary.ClientWrite("telemetry", []byte("120C"), func(l time.Duration, err error) { plainLat = l })
	primary.ClientWrite("setpoint", []byte("95C"), func(l time.Duration, err error) {
		if err != nil {
			log.Fatalf("critical write: %v", err)
		}
		critLat = l
	})
	clk.RunFor(100 * time.Millisecond)
	fmt.Printf("write latency: telemetry (passive) %v, setpoint (critical, 2 backups acked) %v\n",
		plainLat, critLat)
	for name, b := range map[string]*rtpb.Backup{"backupA": backupA, "backupB": backupB} {
		v, _, _ := b.Value("setpoint")
		fmt.Printf("%s holds setpoint=%s\n", name, v)
	}

	// Backup A's host dies. The detector path is exercised in
	// examples/failover; here the operator removes it and recruits a
	// replacement online.
	a.EP.SetDown(true)
	primary.SetPeerAlive(a.Addr, false)
	primary.RemovePeer(a.Addr)
	fmt.Printf("backupA failed and was removed; peers now %v\n", primary.Peers())

	primary.ClientWrite("setpoint", []byte("97C"), func(l time.Duration, err error) {
		if err != nil {
			log.Fatalf("critical write after failure: %v", err)
		}
		fmt.Printf("critical write still completes with one backup: %v\n", l)
	})
	clk.RunFor(100 * time.Millisecond)

	c, err := f.Host("backupC")
	if err != nil {
		return err
	}
	backupC, err := rtpb.NewBackup(rtpb.Config{Clock: clk, Port: c.Port, Peer: p.Addr, Ell: 5 * time.Millisecond})
	if err != nil {
		return err
	}
	if err := primary.AddPeer(c.Addr); err != nil {
		return err
	}
	clk.RunFor(100 * time.Millisecond)
	v, _, ok := backupC.Value("setpoint")
	if !ok {
		return fmt.Errorf("recruit missing state")
	}
	fmt.Printf("backupC recruited online, state-transferred setpoint=%s; peers %v\n", v, primary.Peers())

	if v, _, _ := backupB.Value("setpoint"); string(v) != "97C" {
		return fmt.Errorf("backupB diverged: %q", v)
	}
	fmt.Println("replication continues to both backups")
	return nil
}
