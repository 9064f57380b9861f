package failover

import (
	"errors"
	"fmt"
	"log"

	"rtpb/internal/core"
	"rtpb/internal/xkernel"
)

// PromoteOptions parameterizes a backup-to-primary promotion.
type PromoteOptions struct {
	// Service is the replicated service's name in the name service.
	Service string
	// SelfAddr is the promoted replica's address ("host:port") recorded
	// in the name service.
	SelfAddr xkernel.Addr
	// Names is the name service to update; optional.
	Names *NameService
	// OnPlaceholderDrop, when set, observes the ids of spec-less
	// placeholder objects the promotion had to discard (orphan updates
	// whose registration never arrived — replicated bytes with no
	// identity cannot be served). When nil, the drop is logged via the
	// standard logger so data lost at takeover is never silent.
	OnPlaceholderDrop func(ids []uint32)
	// ActivateClient, when set, is invoked once the new primary is
	// serving — the paper's "invokes a backup version of the client
	// application at the local machine" with the recovered state fed by
	// up-call.
	ActivateClient func(p *core.Replica)
}

// ErrSuperseded is Takeover's refusal: another backup's verdict won.
var ErrSuperseded = errors.New("yielding")

// Takeover rules on a backup detector's death verdict (Section 4.4). If
// the directory already names a primary other than b.Upstream(), b must
// yield: it returns ErrSuperseded and leaves b untouched. This is what
// keeps concurrent verdicts from electing two primaries. Otherwise b
// promotes in place (Promote).
func Takeover(b *core.Replica, opts PromoteOptions) (*core.Replica, error) {
	if opts.Names != nil {
		if addr, epoch, ok := opts.Names.Lookup(opts.Service); ok && addr != b.Upstream() {
			return nil, fmt.Errorf("%v already superseded by %v (epoch %d); %w",
				b.Upstream(), addr, epoch, ErrSuperseded)
		}
	}
	return Promote(b, opts)
}

// Promote executes the Section 4.4 takeover on a backup that has declared
// the primary dead: the replica flips to the primary role in place under
// a bumped epoch. The object table and admission ledger carry over — no
// snapshot copy, no re-admission loop (every spec was admitted when it
// was replicated) — so takeover cost does not grow with the object count.
// The directory entry is then claimed and the standby client application
// activated. The promoted primary starts with no peers; callers re-attach
// surviving backups with AddPeer (or Recruit).
func Promote(b *core.Replica, opts PromoteOptions) (*core.Replica, error) {
	epoch := nextEpoch(b.Epoch(), opts)

	drop := opts.OnPlaceholderDrop
	if drop == nil {
		service := opts.Service
		drop = func(ids []uint32) {
			log.Printf("failover: promotion of %q dropped %d spec-less placeholder object(s) %v: replicated data without a registration cannot be served",
				service, len(ids), ids)
		}
	}
	prev := b.OnPlaceholderDrop
	b.OnPlaceholderDrop = drop
	err := b.Promote(epoch)
	b.OnPlaceholderDrop = prev
	if err != nil {
		return nil, fmt.Errorf("failover: promote: %w", err)
	}
	p := b // same replica, new role

	if opts.Names != nil {
		// Claim the directory entry. A concurrent promotion may have
		// recorded a newer epoch since we derived ours; re-derive above
		// the recorded epoch and try again, so two racing promotions can
		// never mint the same epoch.
		for attempt := 0; ; attempt++ {
			err := opts.Names.Set(opts.Service, opts.SelfAddr, epoch)
			if err == nil {
				break
			}
			if errors.Is(err, ErrStaleEpoch) && attempt < epochClaimRetries {
				if _, rec, ok := opts.Names.Lookup(opts.Service); ok && rec >= epoch {
					epoch = rec + 1
					p.SetEpoch(epoch)
					continue
				}
			}
			p.Stop()
			return nil, fmt.Errorf("failover: name service: %w", err)
		}
	}
	if opts.ActivateClient != nil {
		opts.ActivateClient(p)
	}
	return p, nil
}

// epochClaimRetries bounds how many times a promotion re-derives its
// epoch after losing a directory race.
const epochClaimRetries = 8

// nextEpoch derives the epoch a promotion will claim: one past the
// highest epoch this replica has observed — from replicated traffic or,
// when a directory is available, from its recorded entry (the
// authoritative record a freshly restarted replica may be behind on).
// The floor of 2 encodes that the failed primary held at least epoch 1.
func nextEpoch(observed uint32, opts PromoteOptions) uint32 {
	epoch := observed + 1
	if opts.Names != nil {
		if _, rec, ok := opts.Names.Lookup(opts.Service); ok && rec >= epoch {
			epoch = rec + 1
		}
	}
	if epoch < 2 {
		epoch = 2
	}
	return epoch
}

// Recruit points a serving primary at a fresh backup replica: the peer
// session is re-opened, all object registrations are replayed, liveness
// is re-armed, and a full state transfer pushes current values.
func Recruit(p *core.Replica, backupAddr xkernel.Addr) error {
	if err := p.SetPeer(backupAddr); err != nil {
		return fmt.Errorf("failover: recruit %s: %w", backupAddr, err)
	}
	p.SetBackupAlive(true)
	return nil
}
