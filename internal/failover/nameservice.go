package failover

import (
	"errors"
	"sync"

	"rtpb/internal/xkernel"
)

// NameService is the replicated-service directory of Section 4.4: after a
// takeover "the new primary changes the address in the name file to its
// own internet address". Clients and recruits look the current primary up
// here. Entries are fenced by epoch so a stale replica cannot clobber a
// newer takeover.
//
// NameService is safe for concurrent use (the real-UDP daemons query it
// from different event loops); in simulations all access is on the one
// executor and the lock is uncontended.
type NameService struct {
	mu      sync.Mutex
	entries map[string]nameEntry
}

type nameEntry struct {
	addr  xkernel.Addr
	epoch uint32
}

// ErrStaleEpoch is returned by Set when a newer epoch is already recorded.
var ErrStaleEpoch = errors.New("failover: stale epoch")

// NewNameService returns an empty directory.
func NewNameService() *NameService {
	return &NameService{entries: make(map[string]nameEntry)}
}

// Set records addr as the primary for service at the given epoch. It
// rejects epochs at or below the recorded one, except that re-asserting
// the identical address at the same epoch is allowed (idempotent).
func (ns *NameService) Set(service string, addr xkernel.Addr, epoch uint32) error {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cur, ok := ns.entries[service]
	if ok {
		if epoch < cur.epoch || (epoch == cur.epoch && addr != cur.addr) {
			return ErrStaleEpoch
		}
	}
	ns.entries[service] = nameEntry{addr, epoch}
	return nil
}

// Lookup reports the current primary address and epoch for service.
func (ns *NameService) Lookup(service string) (addr xkernel.Addr, epoch uint32, ok bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.entries[service]
	return e.addr, e.epoch, ok
}
