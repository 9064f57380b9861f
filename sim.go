package rtpb

import (
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/netsim"
	"rtpb/internal/topo"
)

// SimClusterConfig parameterizes a turnkey simulated RTPB deployment.
type SimClusterConfig struct {
	// Seed drives the simulated network's randomness.
	Seed int64
	// Link shapes the primary↔backup link.
	Link LinkParams
	// Ell is ℓ for admission control; defaults to the link's worst-case
	// one-way delay (or 1ms for an ideal link).
	Ell time.Duration
	// Scheduling selects the update-scheduling mode.
	Scheduling SchedulingMode
	// DisableAdmissionControl admits everything (for experiments).
	DisableAdmissionControl bool
	// SlackFactor overrides the update-period slack (default 0.5).
	SlackFactor float64
	// Costs overrides the CPU cost model.
	Costs CostModel
	// SchedTest overrides the admission schedulability test.
	SchedTest SchedTest
}

// SimCluster is a primary and backup pair on a simulated network under a
// virtual clock: the deployment used by the examples and the benchmark
// harness. Everything runs deterministically in virtual time; advance it
// with RunFor.
type SimCluster struct {
	// Clock is the cluster's virtual clock.
	Clock *SimClock
	// Net is the simulated fabric ("primary" and "backup" hosts).
	Net *netsim.Network
	// Primary and Backup are the two replicas.
	Primary *Primary
	Backup  *Backup

	fabric       *topo.Fabric
	pHost, bHost *topo.Host
}

// PrimaryHost and BackupHost are the simulated host names of a SimCluster.
const (
	PrimaryHost = "primary"
	BackupHost  = "backup"
)

// NewSimCluster builds the two-replica deployment: simulated fabric, an
// x-kernel stack per host, and the RTPB primary and backup wired
// together on the well-known port.
func NewSimCluster(cfg SimClusterConfig) (*SimCluster, error) {
	f, hs, err := topo.Build(cfg.Seed, cfg.Link, PrimaryHost, BackupHost)
	if err != nil {
		return nil, err
	}
	ell := cfg.Ell
	if ell == 0 {
		ell = cfg.Link.Bound()
		if ell == 0 {
			ell = time.Millisecond
		}
	}
	primary, err := core.NewPrimary(core.Config{
		Clock:                   f.Clock,
		Port:                    hs[0].Port,
		Peer:                    hs[1].Addr,
		Ell:                     ell,
		Scheduling:              cfg.Scheduling,
		DisableAdmissionControl: cfg.DisableAdmissionControl,
		SlackFactor:             cfg.SlackFactor,
		Costs:                   cfg.Costs,
		SchedTest:               cfg.SchedTest,
	})
	if err != nil {
		return nil, fmt.Errorf("rtpb: sim primary: %w", err)
	}
	backup, err := core.NewBackup(core.Config{Clock: f.Clock, Port: hs[1].Port, Peer: hs[0].Addr, Ell: ell})
	if err != nil {
		return nil, fmt.Errorf("rtpb: sim backup: %w", err)
	}
	return &SimCluster{Clock: f.Clock, Net: f.Net, Primary: primary, Backup: backup,
		fabric: f, pHost: hs[0], bHost: hs[1]}, nil
}

// PrimaryPort exposes the primary host's port protocol, for wiring
// additional protocols or re-homing a replica after failover.
func (s *SimCluster) PrimaryPort() *PortProtocol { return s.pHost.Port }

// BackupPort exposes the backup host's port protocol. A promotion on the
// backup host (failover.Promote) builds the new primary on this stack.
func (s *SimCluster) BackupPort() *PortProtocol { return s.bHost.Port }

// RunFor advances virtual time by d, running everything that falls due.
func (s *SimCluster) RunFor(d time.Duration) { s.Clock.RunFor(d) }

// Register registers an object on the primary and lets the registration
// propagate to the backup.
func (s *SimCluster) Register(spec ObjectSpec) Decision {
	d := s.Primary.Register(spec)
	if d.Accepted {
		s.RunFor(10 * time.Millisecond)
	}
	return d
}

// WriteEvery starts a periodic client writer for the named object on the
// cluster's original primary. The payload function receives the 1-based
// write counter. Stop the returned task to halt the writer.
func (s *SimCluster) WriteEvery(name string, period time.Duration, payload func(i int) []byte) *clock.Periodic {
	return s.WriteEveryTo(s.Primary, name, period, payload)
}

// WriteEveryTo starts a periodic client writer against an arbitrary
// primary — for example one promoted from the backup after a failover.
func (s *SimCluster) WriteEveryTo(p *Primary, name string, period time.Duration, payload func(i int) []byte) *clock.Periodic {
	i := 0
	return clock.NewPeriodic(s.Clock, 0, period, func() {
		i++
		p.ClientWrite(name, payload(i), nil)
	})
}

// AddHost attaches a fresh host to the simulated fabric and returns its
// protocol stack, ready for a replacement replica (failover recruitment).
func (s *SimCluster) AddHost(host string) (*PortProtocol, error) {
	h, err := s.fabric.Host(host)
	if err != nil {
		return nil, err
	}
	return h.Port, nil
}

// CrashPrimary simulates a primary host failure: the replica stops and
// its network endpoint goes silent.
func (s *SimCluster) CrashPrimary() {
	s.Primary.Stop()
	s.pHost.EP.SetDown(true)
}

// CrashBackup simulates a backup host failure.
func (s *SimCluster) CrashBackup() {
	s.Backup.Stop()
	s.bHost.EP.SetDown(true)
}

// Partition cuts the primary↔backup link; Heal restores it.
func (s *SimCluster) Partition() { s.Net.Partition(PrimaryHost, BackupHost) }

// Heal restores the primary↔backup link to the default parameters.
func (s *SimCluster) Heal() { s.Net.Heal(PrimaryHost, BackupHost) }
