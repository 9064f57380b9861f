package cpu

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"rtpb/internal/clock"
)

// seedFlag shifts every property test's fixed RNG seed so alternative
// schedules can be explored on demand (go test ./internal/cpu -seed=N);
// the default 0 keeps runs byte-identical to the committed seeds.
var seedFlag = flag.Int64("seed", 0, "offset added to the property tests' fixed RNG seeds")

func propRand(base int64) *rand.Rand { return rand.New(rand.NewSource(base + *seedFlag)) }

// TestWorkConservation checks the resource is work-conserving: for any
// submission pattern, total busy time equals the sum of costs, and the
// makespan equals the last arrival's backlog (no idling while work is
// queued, no time invented).
func TestWorkConservation(t *testing.T) {
	rng := propRand(5)
	for trial := 0; trial < 50; trial++ {
		clk := clock.NewSim()
		r := New(clk)
		var total time.Duration
		var lastDone time.Time
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Random arrival spacing and cost, random priority.
			clk.RunFor(time.Duration(rng.Intn(5)) * time.Millisecond)
			cost := time.Duration(rng.Intn(8)+1) * time.Millisecond
			total += cost
			prio := High
			if rng.Intn(2) == 0 {
				prio = Low
			}
			r.Submit(prio, cost, func() { lastDone = clk.Now() })
		}
		clk.RunFor(time.Second)
		if r.BusyTime() != total {
			t.Fatalf("trial %d: BusyTime %v != Σcosts %v", trial, r.BusyTime(), total)
		}
		if r.QueueLen() != 0 || busy(r) {
			t.Fatalf("trial %d: resource not drained", trial)
		}
		if lastDone.IsZero() {
			t.Fatalf("trial %d: no completions", trial)
		}
		// The makespan is bounded below by the total service demand: the
		// CPU cannot finish all work earlier than Σcosts after the first
		// arrival (which is at or after the epoch).
		if lastDone.Sub(clock.SimEpoch) < total {
			t.Fatalf("trial %d: last completion %v before Σcosts %v elapsed",
				trial, lastDone.Sub(clock.SimEpoch), total)
		}
	}
}

// TestHighClassNeverWaitsBehindQueuedLow: whenever a High item is
// submitted, every Low item that has not yet started runs after it.
func TestHighClassNeverWaitsBehindQueuedLow(t *testing.T) {
	rng := propRand(9)
	for trial := 0; trial < 50; trial++ {
		clk := clock.NewSim()
		r := New(clk)
		type done struct {
			prio    Priority
			submit  int
			finish  time.Time
			started bool
		}
		var log []*done
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			prio := High
			if rng.Intn(3) > 0 {
				prio = Low
			}
			d := &done{prio: prio, submit: i}
			log = append(log, d)
			cost := time.Duration(rng.Intn(4)+1) * time.Millisecond
			r.Submit(prio, cost, func() { d.finish = clk.Now() })
		}
		clk.RunFor(time.Second)
		// Within each class, completion order follows submission order.
		var lastHigh, lastLow time.Time
		for _, d := range log {
			switch d.prio {
			case High:
				if d.finish.Before(lastHigh) {
					t.Fatalf("trial %d: High completions out of FIFO order", trial)
				}
				lastHigh = d.finish
			case Low:
				if d.finish.Before(lastLow) {
					t.Fatalf("trial %d: Low completions out of FIFO order", trial)
				}
				lastLow = d.finish
			}
		}
		// Every High submitted in the same batch finishes before any Low
		// except the one already occupying the CPU (index 0 if Low).
		var worstHigh time.Time
		for _, d := range log {
			if d.prio == High && d.finish.After(worstHigh) {
				worstHigh = d.finish
			}
		}
		for i, d := range log {
			if d.prio == Low && i > 0 && d.finish.Before(worstHigh) {
				t.Fatalf("trial %d: queued Low %d finished before a High", trial, i)
			}
		}
	}
}

// TestLiveRandomMixKeepsItsRules is the live mode's property test: seeded
// random mixes of High, Low and Idle items, each with a random declared
// cost and a random run time, on a RealClock. High and Low items arrive
// from posts in batches, so each is queued before the turn that runs it
// begins; one Idle chain resubmits itself throughout. Within a turn High
// runs before Low, each class in order; no Idle item starts while High or
// Low work is queued; the chain keeps the cumulative Idle invariant;
// BusyTime stays within the wall time; every item runs exactly once; and
// Stop returns with the chain still going.
func TestLiveRandomMixKeepsItsRules(t *testing.T) {
	rng := propRand(13)
	randDur := func(max time.Duration) time.Duration { return time.Duration(rng.Int63n(int64(max))) }
	type item struct {
		p          Priority
		cost, took time.Duration
		id         int
		then       *item // a Low item it submits as it runs, as a drain chain does
	}
	for trial := 0; trial < 5; trial++ {
		// The Idle chain's items, reused round, and thirty batches of one
		// to eight High and Low items: most of them declared under 1 ms, a
		// quarter free, and one in forty up to 40 ms, so that the budget
		// holds some back and the chain runs in between.
		chain := make([]item, 512)
		for i := range chain {
			chain[i] = item{p: Idle, cost: randDur(time.Millisecond), took: randDur(150 * time.Microsecond)}
		}
		left := 0 // High and Low items not yet run
		newItem := func(p Priority) *item {
			it := &item{p: p, cost: randDur(time.Millisecond), took: randDur(200 * time.Microsecond), id: left}
			switch rng.Intn(40) {
			case 0:
				it.cost = randDur(40 * time.Millisecond)
			case 1, 2, 3, 4, 5, 6, 7, 8, 9, 10:
				it.cost = 0
			}
			left++
			return it
		}
		var batches [][]*item
		for b := 0; b < 30; b++ {
			batch := make([]*item, 1+rng.Intn(8))
			for i := range batch {
				if batch[i] = newItem(High); rng.Intn(2) == 0 {
					batch[i].p = Low
					if rng.Intn(2) == 0 {
						batch[i].then = newItem(Low)
					}
				}
			}
			batches = append(batches, batch)
		}
		runs := make([]int, left)

		clk := clock.NewReal()
		r := New(clk)
		begin := time.Now()
		var broken []string
		var idle []idleItem
		enough, closed := make(chan struct{}), false
		checkEnough := func() { // on the loop
			if !closed && left == 0 && len(idle) >= 8 {
				closed = true
				close(enough)
			}
		}
		var step func(k int) func()
		step = func(k int) func() {
			return func() {
				if k != len(idle) {
					broken = append(broken, fmt.Sprintf("idle item %d ran as number %d", k, len(idle)))
				}
				if n := r.high.len() + r.low.len(); n > 0 {
					broken = append(broken, fmt.Sprintf("idle item %d started with %d High or Low items queued", k, n))
				}
				it := chain[k%len(chain)]
				idle = append(idle, idleItem{start: time.Now(), cost: it.cost})
				idle[k].took = spin(it.took)
				checkEnough()
				r.Submit(Idle, chain[(k+1)%len(chain)].cost, step(k+1))
			}
		}
		clk.Post(func() { r.Submit(Idle, chain[0].cost, step(0)) })

		// High items are submitted only from posts: a Low item that starts
		// with one queued ran ahead of it in its turn.
		var submitted int
		last := map[Priority]int{High: -1, Low: -1}
		var submit func(it *item)
		submit = func(it *item) {
			seq := submitted
			submitted++
			r.Submit(it.p, it.cost, func() {
				runs[it.id]++
				if it.p == Low && r.high.len() > 0 {
					broken = append(broken, fmt.Sprintf("low item %d started with %d High items queued", it.id, r.high.len()))
				}
				if seq < last[it.p] {
					broken = append(broken, fmt.Sprintf("item %d ran out of its class's submission order", it.id))
				}
				last[it.p] = seq
				spin(it.took)
				if it.then != nil {
					submit(it.then)
				}
				left--
				checkEnough()
			})
		}
		for _, batch := range batches {
			clk.Post(func() {
				for _, it := range batch {
					submit(it)
				}
			})
			time.Sleep(randDur(4 * time.Millisecond))
		}
		await(t, enough, "the High and Low items and eight idle ones")

		stopped := make(chan struct{})
		go func() { clk.Stop(); close(stopped) }()
		await(t, stopped, "Stop with the idle chain going")
		wall := time.Since(begin)
		// Stop waited for the loop to exit: what it wrote is ours to read.
		for _, b := range broken {
			t.Errorf("trial %d: %s", trial, b)
		}
		for id, n := range runs {
			if n != 1 {
				t.Errorf("trial %d: item %d ran %d times", trial, id, n)
			}
		}
		if busy := r.BusyTime(); busy > wall {
			t.Errorf("trial %d: BusyTime %v beyond the %v elapsed", trial, busy, wall)
		}
		checkPaced(t, idle)
		if t.Failed() {
			t.Fatalf("trial %d, seed offset %d: %d idle and %d High or Low items", trial, *seedFlag, len(idle), len(runs))
		}
	}
}
