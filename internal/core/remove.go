package core

import (
	"errors"
	"fmt"

	"rtpb/internal/wire"
)

// This file implements object removal, the primitive underneath the shard
// layer's rebalancing: a migration admits the object on the destination
// group first and only then removes it here, so the object is never
// without a schedulable home. Removal revokes the admission reservation
// (freeing schedulability headroom for future registrations), stops the
// update task, and broadcasts an epoch-fenced Unregister so backups
// release their reservations too.

// ErrConstrained rejects removal of an object bound by an inter-object
// constraint: deleting one endpoint would silently void the surviving
// object's δ_ij guarantee.
var ErrConstrained = errors.New("core: object bound by an inter-object constraint")

// remove deletes one admitted object from the table and returns it.
func (a *admission) remove(name string) (*object, error) {
	o, err := a.byNameOrErr(name)
	if err != nil {
		return nil, err
	}
	for _, c := range a.inter {
		if c.I == name || c.J == name {
			return nil, fmt.Errorf("%w: %q", ErrConstrained, name)
		}
	}
	delete(a.objects, o.id)
	delete(a.byName, name)
	// With the departed object's task gone, S_r may grant the survivors
	// longer harmonic periods.
	_ = a.specialize()
	return o, nil
}

// feasible reports whether the resident task set passes the configured
// schedulability test.
func (a *admission) feasible() bool {
	return a.cfg.SchedTest.feasible(a.taskSet())
}

// RemoveObject revokes one object's registration: the update task stops,
// pending critical writes for it complete with ErrUnknownName, queued
// transmissions are dropped, and an Unregister is broadcast so every
// backup releases the object. Objects bound by an inter-object
// constraint cannot be removed (ErrConstrained).
func (p *Replica) RemoveObject(name string) error {
	if !p.running {
		return ErrStopped
	}
	if p.role != RolePrimary {
		return ErrNotPrimary
	}
	o, err := p.adm.remove(name)
	if err != nil {
		return err
	}
	p.logUnregister(o.id)
	if o.task != nil {
		o.task.Stop()
		o.task = nil
	}
	for _, pa := range o.pendingAcks {
		p.completeCritical(o, pa, fmt.Errorf("%w: %q", ErrUnknownName, name))
	}
	for i, po := range p.pumpOrder {
		if po == o {
			p.pumpOrder = append(p.pumpOrder[:i], p.pumpOrder[i+1:]...)
			break
		}
	}
	for _, pr := range p.peers {
		pr.queue.remove(o.id)
		delete(pr.registered, o.id)
	}
	if p.gov != nil {
		p.gov.forget(o.id)
	}
	p.retimeUpdateTasks()
	p.broadcast(&wire.Unregister{Epoch: p.epoch, ObjectID: o.id})
	return nil
}

// Feasible reports whether the primary's resident task set still passes
// its configured schedulability test. The placement layer's property —
// no accepted placement sequence may overcommit a shard — is stated in
// terms of this predicate.
func (p *Replica) Feasible() bool { return p.adm.feasible() }

// ResyncPeers restarts the chunked anti-entropy exchange toward every
// live peer. The digest diff ensures only missing or stale entries are
// streamed, so resyncing after a migration carries exactly the migrated
// object's spec and state to the backups; everything already current is
// skipped. Peers are marked syncing (excluded from quorums) until their
// exchange completes.
func (p *Replica) ResyncPeers() {
	if !p.running || p.role != RolePrimary {
		return
	}
	for _, pr := range p.peers {
		if pr.alive {
			p.beginJoin(pr)
		}
	}
}

// handleUnregister releases one object at the backup. It is epoch-fenced
// like every other mutation from the primary.
func (b *Replica) handleUnregister(t *wire.Unregister) {
	if !b.observeEpoch(t.Epoch) {
		return
	}
	o, ok := b.adm.objects[t.ObjectID]
	if !ok {
		return
	}
	if o.catchingUp {
		b.catchingUp--
	}
	if o.spec.Name != "" {
		delete(b.adm.byName, o.spec.Name)
	}
	delete(b.adm.objects, t.ObjectID)
	b.logUnregister(t.ObjectID)
}
