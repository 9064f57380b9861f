package core

// sendQueue is one peer's bounded queue of pending update transmissions
// under normal scheduling. It holds object identifiers, not payloads: an
// entry means "this object's current state still has to go out", so a
// newer client write for an already-queued object coalesces into the
// existing slot and the eventual transmission carries the newest state.
// That makes drop-oldest the right overflow policy for state replication —
// the evicted object's next periodic release re-queues it, and nothing
// ever transmits stale state.
type sendQueue struct {
	limit  int // <= 0 means unbounded
	ids    []uint32
	member map[uint32]bool
	stats  SendQueueStats
}

// SendQueueStats counts one peer send queue's traffic for observability.
type SendQueueStats struct {
	// Coalesced counts transmissions absorbed into an already-queued
	// entry — each one is a missed transmission deadline (the previous
	// release never reached the wire before the next).
	Coalesced int
	// MaxDepth is the high-water queue depth.
	MaxDepth int
}

func newSendQueue(limit int) *sendQueue {
	return &sendQueue{limit: limit, member: make(map[uint32]bool)}
}

// enqueue adds the object to the queue; coalesced reports that the object
// was already pending (its slot now represents the newer state).
func (q *sendQueue) enqueue(id uint32) (coalesced bool) {
	if q.member[id] {
		q.stats.Coalesced++
		return true
	}
	if q.limit > 0 && len(q.ids) >= q.limit {
		evicted := q.ids[0]
		q.ids = q.ids[1:]
		delete(q.member, evicted)
	}
	q.ids = append(q.ids, id)
	q.member[id] = true
	if len(q.ids) > q.stats.MaxDepth {
		q.stats.MaxDepth = len(q.ids)
	}
	return false
}

// remove deletes the object from the queue if present.
func (q *sendQueue) remove(id uint32) bool {
	if !q.member[id] {
		return false
	}
	delete(q.member, id)
	for i, v := range q.ids {
		if v == id {
			q.ids = append(q.ids[:i], q.ids[i+1:]...)
			break
		}
	}
	return true
}

// head returns the oldest queued object id.
func (q *sendQueue) head() (uint32, bool) {
	if len(q.ids) == 0 {
		return 0, false
	}
	return q.ids[0], true
}

func (q *sendQueue) depth() int { return len(q.ids) }

// congested reports whether the queue is at least half full — the
// backpressure signal the chunked anti-entropy sender yields to, so a
// catch-up stream defers to a backlog of live update traffic instead of
// competing with it.
func (q *sendQueue) congested() bool {
	return q.limit > 0 && len(q.ids)*2 >= q.limit
}

// clear empties the queue, keeping the lifetime stats.
func (q *sendQueue) clear() {
	q.ids = q.ids[:0]
	for id := range q.member {
		delete(q.member, id)
	}
}
