// Package repair implements the cluster's self-healing loop: automated
// recruitment of replacement backups on the primary side (Recruiter) and
// the rejoin protocol on a restarted replica (Rejoiner). Both sides
// rendezvous through the failover directory — the paper's name file —
// extended with a candidate registry: an idle replica announces itself
// recruitable, a primary that has lost replication degree probes the
// list, and the chunked anti-entropy exchange in internal/core drives
// the recruit to parity.
package repair

import (
	"fmt"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/core"
	"rtpb/internal/failover"
	"rtpb/internal/xkernel"
)

// RecruiterConfig parameterizes the primary-side repair loop.
type RecruiterConfig struct {
	// Clock schedules the probe loop (the replica's virtual or real
	// clock).
	Clock clock.Clock
	// Service is the replicated service's directory entry.
	Service string
	// Directory is the failover directory; it must also implement
	// failover.Candidates (both bundled implementations do).
	Directory failover.Directory
	// Self is this primary's own replication address, never recruited.
	Self xkernel.Addr
	// Target is the desired replication degree (number of live backups);
	// defaults to 1.
	Target int
	// Interval is the probe period; defaults to 250ms.
	Interval time.Duration
	// Cooldown quarantines a candidate whose join exchange failed before
	// it is probed again; defaults to 2s.
	Cooldown time.Duration
	// OnRecruit, when set, observes every probe of a candidate.
	OnRecruit func(addr xkernel.Addr)
	// OnRotate, when set, observes a candidate being dropped after its
	// join exchange exhausted its retries.
	OnRotate func(addr xkernel.Addr)
}

// RecruiterStats counts the repair loop's activity.
type RecruiterStats struct {
	// Probes counts candidates attached for a join exchange.
	Probes int
	// Recruited counts peers whose exchange completed (synced).
	Recruited int
	// Rotations counts candidates dropped after a failed exchange.
	Rotations int
}

// Recruiter watches a primary's replication degree and recruits
// directory candidates to restore it: the automated half of the paper's
// Section 4.4 recovery ("the new primary ... recruits a new backup").
// Detection of the degree loss itself is the failure detector's job;
// the recruiter only reacts to what PeerStates reports.
type Recruiter struct {
	p     *core.Replica
	cfg   RecruiterConfig
	cands failover.Candidates
	task  *clock.Periodic

	failedAt map[xkernel.Addr]time.Time
	stats    RecruiterStats
}

// NewRecruiter wires a recruiter to a primary. It chains the primary's
// OnPeerSynced and OnPeerSyncFailed callbacks (previously installed
// observers keep firing), so it must be created after any direct
// callback assignment.
func NewRecruiter(p *core.Replica, cfg RecruiterConfig) (*Recruiter, error) {
	cands, ok := cfg.Directory.(failover.Candidates)
	if !ok {
		return nil, fmt.Errorf("repair: directory %T does not support candidates", cfg.Directory)
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("repair: recruiter needs a clock")
	}
	if cfg.Target <= 0 {
		cfg.Target = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	r := &Recruiter{p: p, cfg: cfg, cands: cands, failedAt: make(map[xkernel.Addr]time.Time)}
	prevSynced := p.OnPeerSynced
	p.OnPeerSynced = func(addr xkernel.Addr, entries int) {
		if prevSynced != nil {
			prevSynced(addr, entries)
		}
		r.stats.Recruited++
	}
	prevFailed := p.OnPeerSyncFailed
	p.OnPeerSyncFailed = func(addr xkernel.Addr) {
		if prevFailed != nil {
			prevFailed(addr)
		}
		r.onSyncFailed(addr)
	}
	return r, nil
}

// Start begins the probe loop. The first probe runs after one interval,
// giving a just-promoted primary time to finish its own takeover before
// repair traffic starts.
func (r *Recruiter) Start() {
	if r.task != nil {
		return
	}
	r.task = clock.NewPeriodic(r.cfg.Clock, r.cfg.Interval, r.cfg.Interval, r.tick)
}

// Stop halts the probe loop; attached peers are left as they are.
func (r *Recruiter) Stop() {
	if r.task != nil {
		r.task.Stop()
		r.task = nil
	}
}

// Stats reports the loop's lifetime counters.
func (r *Recruiter) Stats() RecruiterStats { return r.stats }

// tick is one probe round: count the live voting peers (synced or
// mid-join — a syncing peer is on its way, so no second candidate is
// probed for the same slot), and attach candidates until the target
// degree is covered. Observer peers never satisfy the degree: a
// read-only subscriber holds state but cannot take over, so it counts
// for nothing here no matter how healthy its link looks.
func (r *Recruiter) tick() {
	p := r.p
	if !p.Running() {
		return
	}
	have := 0
	attached := make(map[xkernel.Addr]bool)
	for _, st := range p.PeerStates() {
		attached[st.Addr] = true
		if st.Alive && !st.Observer {
			have++
		}
	}
	if have >= r.cfg.Target {
		return
	}
	now := r.cfg.Clock.Now()
	for _, cand := range r.cands.CandidateList(r.cfg.Service) {
		if have >= r.cfg.Target {
			return
		}
		if cand == r.cfg.Self || attached[cand] {
			continue
		}
		if t, ok := r.failedAt[cand]; ok && now.Sub(t) < r.cfg.Cooldown {
			continue
		}
		if err := p.AddPeer(cand); err != nil {
			continue
		}
		r.stats.Probes++
		if r.cfg.OnRecruit != nil {
			r.cfg.OnRecruit(cand)
		}
		have++
	}
}

// onSyncFailed rotates away from a candidate whose join exchange
// exhausted its retry budget: the peer is detached and quarantined, so
// the next tick probes the next candidate instead of hammering a dead
// one.
func (r *Recruiter) onSyncFailed(addr xkernel.Addr) {
	r.p.RemovePeer(addr)
	r.failedAt[addr] = r.cfg.Clock.Now()
	r.stats.Rotations++
	if r.cfg.OnRotate != nil {
		r.cfg.OnRotate(addr)
	}
}
