package cpu

import (
	"slices"
	"testing"
	"time"

	"rtpb/internal/clock"
)

// The resource under RealClock: work runs at hardware speed on the clock
// loop, accounted, and held to the modelled processor's budget. Every wait
// below is for an event, and every timing assertion is a lower bound or an
// order but one: TestLiveIdleStartsOnTime bounds a median lateness.

const liveTimeout = 5 * time.Second

// onLoop runs fn on the clock's executor and waits for it.
func onLoop(t *testing.T, clk *clock.RealClock, fn func()) {
	t.Helper()
	done := make(chan struct{})
	clk.Post(func() { fn(); close(done) })
	await(t, done, "loop callback")
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(liveTimeout):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func TestLiveHighBeforeLowBeforeIdle(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	var order []string
	done := make(chan struct{})
	onLoop(t, clk, func() {
		r.Submit(Idle, ms(1), func() { order = append(order, "idle"); close(done) })
		r.Submit(Low, ms(1), func() { order = append(order, "low1") })
		r.Submit(Low, ms(1), func() { order = append(order, "low2") })
		r.Submit(High, ms(1), func() { order = append(order, "high") })
		if len(order) != 0 {
			t.Errorf("Submit ran %v inline", order)
		}
		if r.QueueLen() != 4 {
			t.Errorf("QueueLen = %d, want 4", r.QueueLen())
		}
	})
	await(t, done, "the idle item")
	want := []string{"high", "low1", "low2", "idle"}
	for i := range want {
		if len(order) != len(want) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// A completion that submits again is the drain and pump pattern. The next
// item must wait for the loop's next turn: no recursion however long the
// chain, and a Post that lands during one step runs before the step after
// next.
func TestLiveChainNeitherRecursesNorStarvesPost(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	const steps, postAt = 10000, 5000
	var step, depth, maxDepth int
	reached := make(chan struct{})
	posted := make(chan struct{})
	done := make(chan struct{})
	var next func()
	next = func() {
		if depth++; depth > maxDepth {
			maxDepth = depth
		}
		defer func() { depth-- }()
		if step++; step == steps {
			close(done)
			return
		}
		r.Submit(Low, time.Microsecond, next)
		if step == postAt {
			close(reached)
			<-posted // hold this step until the post is queued
		}
	}
	clk.Post(func() { r.Submit(Low, time.Microsecond, next) })

	postRanAt := -1
	await(t, reached, "the chain to get going")
	clk.Post(func() { postRanAt = step })
	close(posted)
	await(t, done, "the chain to finish")
	onLoop(t, clk, func() {}) // orders the reads below after the loop's writes
	if maxDepth != 1 {
		t.Fatalf("completions nested %d deep, want 1", maxDepth)
	}
	if postRanAt < 0 || postRanAt > postAt+1 {
		t.Fatalf("post queued during step %d ran at step %d", postAt, postRanAt)
	}
}

func TestLiveBusyTimeIsMeasuredNotDeclared(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	const took = 5 * time.Millisecond
	done := make(chan struct{})
	t0 := time.Now()
	onLoop(t, clk, func() {
		// Declared nothing, declared a tenth of what it takes: both take
		// what they take.
		r.Submit(Low, 0, func() { time.Sleep(took) })
		r.Submit(High, took/10, func() { time.Sleep(took) })
		r.Submit(Low, 0, func() { close(done) })
	})
	await(t, done, "the work")
	var busy time.Duration
	onLoop(t, clk, func() { busy = r.BusyTime() })
	wall := time.Since(t0)
	if busy < 2*took || busy > wall {
		t.Fatalf("BusyTime = %v, want between the %v slept and the %v elapsed", busy, 2*took, wall)
	}
}

// Item k of an Idle chain starts no earlier than the first item's start
// plus the charges of the items before it, and the resource is free in
// between: a Low item submitted during the gap runs before the next Idle
// item.
func TestLiveIdleIsPacedAndYields(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	// Charged idleFactor·w, a gap of 120 ms, not the declared second.
	const cost, w, n = time.Second, 15 * time.Millisecond, 3
	var order []string
	var items []idleItem
	first := make(chan struct{})
	done := make(chan struct{})
	var pump func()
	pump = func() {
		order = append(order, "idle")
		items = append(items, idleItem{start: time.Now(), cost: cost})
		if len(items) == 1 {
			close(first)
		}
		items[len(items)-1].took = spin(w)
		if len(items) == n {
			close(done)
			return
		}
		r.Submit(Idle, cost, pump)
	}
	clk.Post(func() { r.Submit(Idle, cost, pump) })
	await(t, first, "the first idle item")
	lowRan := make(chan struct{})
	clk.Post(func() {
		r.Submit(Low, ms(1), func() { order = append(order, "low"); close(lowRan) })
	})
	await(t, lowRan, "the low item")
	await(t, done, "the idle chain")
	onLoop(t, clk, func() {})
	want := []string{"idle", "low", "idle", "idle"}
	for i := range want {
		if len(order) != len(want) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	checkPaced(t, items)
}

// spin holds the loop for w and reports how long it held it.
func spin(w time.Duration) time.Duration {
	t0 := time.Now()
	for time.Since(t0) < w {
	}
	return time.Since(t0)
}

// idleItem is what an Idle item saw of itself: when it started, the cost
// it was submitted with and how long it held the loop.
type idleItem struct {
	start      time.Time
	cost, took time.Duration
}

// charge is the least the resource charged the item. It measures an item
// from just before calling it to just after, never less than the item
// measures itself.
func (it idleItem) charge() time.Duration { return min(it.cost, idleFactor*it.took) }

// checkPaced fails unless every item of an Idle chain started no earlier
// than the first one's start plus the charges of the items before it. The
// resource stamps an item's start just before calling it and the item
// stamps itself just after; a millisecond covers that.
func checkPaced(t *testing.T, items []idleItem) {
	t.Helper()
	var charged time.Duration
	for k := 1; k < len(items); k++ {
		charged += items[k-1].charge()
		if d := items[k].start.Sub(items[0].start); d < charged-ms(1) {
			t.Fatalf("idle item %d started %v after the first, want >= %v", k, d, charged)
		}
	}
}

// idleChain starts an Idle chain of the given cost on the loop, each item
// holding the loop for w, and returns its items once one starts at or
// after until (or, with until zero, after n items).
func idleChain(t *testing.T, clk *clock.RealClock, r *Resource, cost, w time.Duration, n int, until time.Duration) []idleItem {
	t.Helper()
	var items []idleItem
	done := make(chan struct{})
	var step func()
	step = func() {
		start := time.Now()
		items = append(items, idleItem{start: start, cost: cost, took: spin(w)})
		if len(items) == n || until > 0 && start.Sub(items[0].start) >= until {
			close(done)
			return
		}
		r.Submit(Idle, cost, step)
	}
	clk.Post(func() { r.Submit(Idle, cost, step) })
	await(t, done, "the idle chain")
	onLoop(t, clk, func() {})
	return items
}

// An Idle item also starts no later than the clock's release lets it:
// with items that spin 20 µs and declare 100 µs, which caps their charge,
// item k is due k·100 µs after the first started, and the median item
// starts within 250 µs of that. A timer rounded up to the poller's
// millisecond sleeps past that and the chain catches up in bursts; a turn
// that dropped the lateness it reclaims drifts later by each one. The
// allowance grows by the median lateness of a chain of plain clock events
// paced and spinning alike, interleaved with it on the same loop: a host
// that preempts the loop makes both catch up, and fails neither.
func TestLiveIdleStartsOnTime(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	const cost, w, n = 100 * time.Microsecond, 20 * time.Microsecond, 200
	var first time.Time
	var late, host []time.Duration
	finished := false // read and written on the loop only
	done := make(chan struct{})
	var ref func(due time.Time)
	ref = func(due time.Time) {
		clk.ScheduleAt(due, func() {
			if !finished {
				host = append(host, time.Since(due))
				spin(w)
				ref(due.Add(cost))
			}
		})
	}
	var step func()
	step = func() {
		if first.IsZero() {
			first = time.Now()
			ref(first.Add(cost / 2))
		} else {
			late = append(late, time.Since(first.Add(time.Duration(len(late)+1)*cost)))
		}
		if spin(w); len(late) == n {
			finished = true
			close(done)
			return
		}
		r.Submit(Idle, cost, step)
	}
	clk.Post(func() { r.Submit(Idle, cost, step) })
	await(t, done, "the idle chain")
	onLoop(t, clk, func() {})
	slices.Sort(late)
	slices.Sort(host)
	if len(host) == 0 {
		t.Fatal("the reference chain never fired while the idle chain ran")
	}
	ref50, ref99 := host[len(host)/2], host[len(host)*99/100]
	t.Logf("lateness p50 %v, p99 %v; the reference chain beside it p50 %v, p99 %v",
		late[n/2], late[n*99/100], ref50, ref99)
	if p50 := late[n/2]; p50 >= 250*time.Microsecond+ref50 {
		t.Fatalf("idle items started %v (median) after their due time, want < 250µs + %v, "+
			"the median lateness of the reference chain beside them (p99 %v)", p50, ref50, ref99)
	}
}

// A turn that comes late does not cost the chain its budget: after the
// loop is held for five items' charges, the chain catches up, one item per
// turn, and ends the window no further behind its charges than a timer's
// lateness.
func TestLiveIdleReclaimsLateTurn(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	const cost, w, window = time.Second, time.Millisecond, 400 * time.Millisecond
	const hold = 5 * idleFactor * w
	go func() {
		time.Sleep(window / 2)
		clk.Post(func() { time.Sleep(hold) })
	}()
	items := idleChain(t, clk, r, cost, w, 0, window)
	checkPaced(t, items)
	last := len(items) - 1
	var charged time.Duration
	for _, it := range items[:last] {
		charged += it.charge()
	}
	// Lost, the lag would be the hold plus every timer's lateness.
	if lag := items[last].start.Sub(items[0].start) - charged; lag > hold/2 {
		t.Fatalf("idle item %d started %v behind its chain's charges, want <= %v", last, lag, hold/2)
	}
}

// Budget from a pause is not carried: a chain that restarts after more
// than maxLead without Idle work does not burst.
func TestLiveIdleRestartDoesNotBurst(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	const cost, w = time.Second, 2 * time.Millisecond
	idleChain(t, clk, r, cost, w, 2, 0)
	time.Sleep(maxLead + 5*idleFactor*w)
	checkPaced(t, idleChain(t, clk, r, cost, w, 3, 0))
}

// An item is charged at most its declared cost: one that holds the loop
// for longer than cost/idleFactor is charged cost, so its successor starts
// cost later, not idleFactor times its run time later.
func TestLiveIdleChargeIsCapped(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	const cost, w, n = 20 * time.Millisecond, 15 * time.Millisecond, 4
	items := idleChain(t, clk, r, cost, w, n, 0)
	checkPaced(t, items)
	if d, uncapped := items[n-1].start.Sub(items[0].start), (n-1)*idleFactor*w; d >= uncapped/2 {
		t.Fatalf("idle item %d started %v after the first, want < %v: charged idleFactor·w, not cost", n-1, d, uncapped/2)
	}
}

// Declared cost is a budget: work runs at hardware speed until it is
// maxLead ahead of a modelled processor and at that processor's rate from
// there on, in order.
func TestLiveBudgetHoldsOverload(t *testing.T) {
	clk := clock.NewReal()
	defer clk.Stop()
	r := New(clk)
	const cost = 10 * time.Millisecond
	const inLead, beyond = int(maxLead / cost), 5
	var starts []time.Time
	done := make(chan struct{})
	onLoop(t, clk, func() {
		for i := 0; i < inLead+beyond; i++ {
			r.Submit(Low, cost, func() {
				if starts = append(starts, time.Now()); len(starts) == inLead+beyond {
					close(done)
				}
			})
		}
	})
	await(t, done, "the burst")
	onLoop(t, clk, func() {})
	// Item i may start once the i items before it are within maxLead of
	// done on the modelled processor; the first inLead+1 at once.
	for i := inLead + 1; i < len(starts); i++ {
		if d, want := starts[i].Sub(starts[0]), time.Duration(i-inLead)*cost; d < want-ms(1) {
			t.Fatalf("item %d started %v after the first, want >= %v", i, d, want)
		}
	}
	// Idle work waits until the modelled processor is done with all of it.
	idle := make(chan time.Time, 1)
	onLoop(t, clk, func() { r.Submit(Idle, 0, func() { idle <- time.Now() }) })
	select {
	case at := <-idle:
		if d, want := at.Sub(starts[0]), time.Duration(inLead+beyond)*cost; d < want-ms(1) {
			t.Fatalf("idle item ran %v after the first item, want >= %v", d, want)
		}
	case <-time.After(liveTimeout):
		t.Fatal("timed out waiting for the idle item")
	}
}
