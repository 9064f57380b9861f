// Package cpu is the replica server's processor: a single serially
// scheduled resource with priority classes. What it does with a submitted
// cost depends on the clock that drives it.
//
// Under a simulated clock it is the model of the paper's evaluation.
// Client requests and backup-update transmissions share one CPU, so
// admitting too many objects (Figure 7) saturates it and client response
// time explodes, while admission control (Figure 6) keeps utilization
// bounded. Each item occupies the processor for its declared cost of
// virtual time. Compressed scheduling (Figure 12) is "schedule as many
// updates to backup as the resources allow": an update pump that chains
// one transmission after another through the Idle class.
//
// Under clock.RealClock the processor is the machine's own. Work runs at
// hardware speed on the clock's loop and the resource accounts: the busy
// time it measured and the queue it holds. The declared costs are kept as
// a budget, the time a modelled processor would have needed for the same
// work. The live processor may run up to maxLead ahead of that one and no
// further, and the Idle class runs only while that one would be idle,
// charged for what it measured. Admitted load stays far inside the budget
// and is never held back; load beyond what the model can carry is served
// at the model's rate, the same on every host and from one minute to the
// next, and not at whatever rate the host's scheduler happens to allow.
package cpu

import (
	"time"

	"rtpb/internal/clock"
)

// Priority is the scheduling class of submitted work.
type Priority int

const (
	// High is used for client-facing work (request handling).
	High Priority = iota + 1
	// Low is used for background work (update transmissions).
	Low
	// Idle is for work that resubmits itself for as long as the processor
	// lets it (the compressed-scheduling pump). A modelled processor
	// queues it with Low. A live one runs it, one item per turn, only when
	// no High or Low work is queued and the modelled processor would be
	// idle, and charges it idleFactor times what it measured, at most its
	// declared cost. Item k of a chain starts no earlier than the first
	// item's start plus the charges of items 0…k−1, and budget a late turn
	// lost is reclaimed (up to maxLead) while budget from a pause is not.
	Idle
)

// Resource is a non-preemptive priority FIFO processor.
type Resource struct {
	clk clock.Clock
	// live is set when clk is a RealClock: submitted work runs on the
	// clock loop and takes what it takes. Any other clock gets the
	// modelled processor.
	live bool

	high queue
	low  queue
	idle queue // live only

	running            bool   // modelled: an item occupies the processor
	cur                work   // modelled: that item, until it completes
	completeFn, turnFn func() // cur's completion and r.turn, built once: no item allocates them
	busy               time.Duration

	// live only
	modelFree time.Time    // when a modelled processor would be done with the work run so far
	chained   bool         // the last Idle item resubmitted: the next one continues its chain
	wake      *clock.Event // the scheduled turn, if any, and its instant
	wakeAt    time.Time
}

// maxLead is how much declared cost the live processor may run ahead of
// real time. A burst up to that size (every update task of a period
// released in one turn) runs at hardware speed; sustained load above the
// modelled processor's capacity is held to that capacity.
const maxLead = 100 * time.Millisecond

// idleFactor is how many times its measured run time an Idle item is
// charged: the pump holds the loop for at most an eighth of the time. A
// live pump step, one frame of a whole round, measures 5–10 µs for 32
// updates of 64 B against the 400 µs declared: at 8 the pump sends
// ~400 000 updates/s on a 2-CPU host.
const idleFactor = 8

type work struct {
	cost time.Duration
	fn   func()
}

// queue is a FIFO that reuses its backing array once drained.
type queue struct {
	items []work
	head  int
}

func (q *queue) len() int { return len(q.items) - q.head }

func (q *queue) push(w work) { q.items = append(q.items, w) }

func (q *queue) pop() work {
	w := q.items[q.head]
	q.items[q.head] = work{}
	if q.head++; q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return w
}

func (w work) run() {
	if w.fn != nil {
		w.fn()
	}
}

// New returns an idle resource driven by clk.
func New(clk clock.Clock) *Resource {
	_, live := clk.(*clock.RealClock)
	r := &Resource{clk: clk, live: live}
	r.completeFn, r.turnFn = func() { r.cur.run(); r.dispatch() }, r.turn
	return r
}

// Submit enqueues work of the given declared cost and then runs fn on the
// clock executor, never from inside Submit. The modelled processor runs
// fn at the work's completion instant, cost after it reached the head of
// the queue; zero-cost work still round-trips through the queue,
// preserving ordering. The live processor runs fn on the loop's next turn,
// or as soon after as the budget lets the work start.
func (r *Resource) Submit(p Priority, cost time.Duration, fn func()) {
	if cost < 0 {
		cost = 0
	}
	w := work{cost: cost, fn: fn}
	switch {
	case p == High:
		r.high.push(w)
	case p == Idle && r.live:
		r.idle.push(w)
	default:
		r.low.push(w)
	}
	if r.live {
		r.arm()
	} else if !r.running {
		r.dispatch()
	}
}

// dispatch starts the modelled processor's next item.
func (r *Resource) dispatch() {
	w, ok := r.next()
	r.running, r.cur = ok, w
	if !ok {
		return
	}
	r.busy += w.cost
	r.clk.Schedule(w.cost, r.completeFn)
}

// next pops the head of the High queue, else of the Low queue.
func (r *Resource) next() (w work, ok bool) {
	switch {
	case r.high.len() > 0:
		return r.high.pop(), true
	case r.low.len() > 0:
		return r.low.pop(), true
	}
	return work{}, false
}

// arm makes sure a turn of the live processor is coming when its next
// item may start: High or Low work once the modelled processor is within
// maxLead of real time (on the loop's next turn, as a rule), Idle work
// once the modelled processor is idle.
func (r *Resource) arm() {
	var at time.Time
	switch {
	case r.high.len()+r.low.len() > 0:
		at = r.modelFree.Add(-maxLead)
	case r.idle.len() > 0:
		at = r.modelFree
	default:
		return
	}
	if r.wake != nil {
		if !r.wakeAt.After(at) {
			return
		}
		r.wake.Cancel()
	}
	r.wake, r.wakeAt = r.clk.ScheduleAt(at, r.turnFn), at
}

// turn runs the High and Low items that were queued when it began, High
// first and for as long as the budget lets them start, and then one Idle
// item if nothing else is queued. What they submit waits for the next
// turn, after whatever else the clock loop has due by then.
func (r *Resource) turn() {
	r.wake = nil
	start := r.clk.Now()
	for n := r.high.len() + r.low.len(); n > 0 && !start.Before(r.modelFree.Add(-maxLead)); n-- {
		w, _ := r.next()
		r.charge(start, w.cost)
		w.run()
	}
	end := r.clk.Now()
	if r.high.len()+r.low.len() == 0 && r.idle.len() > 0 && !end.Before(r.modelFree) {
		w := r.idle.pop()
		from := end
		if r.chained { // a late turn keeps the budget it spent, up to maxLead
			from = end.Add(-maxLead)
		}
		w.run()
		r.chained = r.idle.len() > 0
		took := r.clk.Now().Sub(end)
		r.charge(from, min(w.cost, idleFactor*took))
		end = end.Add(took)
	}
	r.busy += end.Sub(start)
	r.arm()
}

// charge books cost on the modelled processor, which takes the work up
// at from or when it is done with what it already has.
func (r *Resource) charge(from time.Time, cost time.Duration) {
	if r.modelFree.Before(from) {
		r.modelFree = from
	}
	r.modelFree = r.modelFree.Add(cost)
}

// Live reports whether this is the live processor, driven by a RealClock.
func (r *Resource) Live() bool { return r.live }

// QueueLen reports the number of queued (not yet started) work items.
func (r *Resource) QueueLen() int { return r.high.len() + r.low.len() + r.idle.len() }

// BusyTime reports the cumulative processor time consumed by completed
// and in-progress work: the sum of declared costs on the modelled
// processor, the time the work was measured to take on the live one.
func (r *Resource) BusyTime() time.Duration { return r.busy }
