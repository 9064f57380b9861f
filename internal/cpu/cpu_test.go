package cpu

import (
	"testing"
	"time"

	"rtpb/internal/clock"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// busy reports whether r is running an item or has a turn scheduled.
func busy(r *Resource) bool { return r.running || r.wake != nil }

func TestSerialExecutionFIFO(t *testing.T) {
	clk := clock.NewSim()
	r := New(clk)
	var done []int
	var times []time.Duration
	for i := 0; i < 3; i++ {
		i := i
		r.Submit(High, ms(10), func() {
			done = append(done, i)
			times = append(times, clk.Now().Sub(clock.SimEpoch))
		})
	}
	clk.RunFor(ms(100))
	if len(done) != 3 || done[0] != 0 || done[1] != 1 || done[2] != 2 {
		t.Fatalf("completion order = %v", done)
	}
	want := []time.Duration{ms(10), ms(20), ms(30)}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("completions at %v, want %v", times, want)
		}
	}
}

func TestHighPriorityOvertakesQueuedLow(t *testing.T) {
	clk := clock.NewSim()
	r := New(clk)
	var order []string
	r.Submit(Low, ms(10), func() { order = append(order, "low1") })
	r.Submit(Low, ms(10), func() { order = append(order, "low2") })
	r.Submit(High, ms(1), func() { order = append(order, "high") })
	clk.RunFor(ms(100))
	// low1 already occupies the CPU (non-preemptive), but high overtakes
	// the queued low2.
	want := []string{"low1", "high", "low2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestQueueingDelayAccumulates(t *testing.T) {
	clk := clock.NewSim()
	r := New(clk)
	var last time.Duration
	for i := 0; i < 10; i++ {
		r.Submit(High, ms(5), func() { last = clk.Now().Sub(clock.SimEpoch) })
	}
	clk.RunFor(ms(100))
	if last != ms(50) {
		t.Fatalf("last completion at %v, want 50ms", last)
	}
	if r.BusyTime() != ms(50) {
		t.Fatalf("BusyTime = %v, want 50ms", r.BusyTime())
	}
}

func TestIdleThenResume(t *testing.T) {
	clk := clock.NewSim()
	r := New(clk)
	ran := 0
	r.Submit(High, ms(5), func() { ran++ })
	clk.RunFor(ms(20))
	if busy(r) {
		t.Fatal("resource busy after drain")
	}
	r.Submit(Low, ms(5), func() { ran++ })
	clk.RunFor(ms(20))
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestZeroAndNegativeCost(t *testing.T) {
	clk := clock.NewSim()
	r := New(clk)
	ran := 0
	r.Submit(High, 0, func() { ran++ })
	r.Submit(High, -ms(5), func() { ran++ })
	clk.RunFor(ms(1))
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if r.BusyTime() != 0 {
		t.Fatalf("BusyTime = %v, want 0", r.BusyTime())
	}
}

func TestChainedWorkKeepsCPUBusy(t *testing.T) {
	// The compressed-scheduling pump pattern: each completion submits the
	// next work item. The CPU must stay continuously busy.
	clk := clock.NewSim()
	r := New(clk)
	count := 0
	var pump func()
	pump = func() {
		count++
		if count < 100 {
			r.Submit(Low, ms(1), pump)
		}
	}
	r.Submit(Low, ms(1), pump)
	clk.RunFor(ms(100))
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if r.BusyTime() != ms(100) {
		t.Fatalf("BusyTime = %v, want 100ms", r.BusyTime())
	}
}

func TestQueueLen(t *testing.T) {
	clk := clock.NewSim()
	r := New(clk)
	r.Submit(High, ms(10), nil)
	r.Submit(High, ms(10), nil)
	r.Submit(Low, ms(10), nil)
	if r.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2 (one running)", r.QueueLen())
	}
	clk.RunFor(ms(100))
	if r.QueueLen() != 0 {
		t.Fatalf("QueueLen after drain = %d", r.QueueLen())
	}
}

// On the modelled processor the Idle class is the Low class: the same
// submissions complete at the same virtual instants in the same order
// whichever of the two the pump uses.
func TestIdleIsLowUnderSimClock(t *testing.T) {
	type completion struct {
		label string
		at    time.Duration
	}
	run := func(pumpClass Priority) []completion {
		clk := clock.NewSim()
		r := New(clk)
		var log []completion
		note := func(label string) func() {
			return func() { log = append(log, completion{label, clk.Now().Sub(clock.SimEpoch)}) }
		}
		sends := 0
		var pump func()
		pump = func() {
			note("pump")()
			if sends++; sends < 6 {
				r.Submit(pumpClass, ms(4), pump)
			}
		}
		r.Submit(Low, ms(2), note("write1"))
		r.Submit(pumpClass, ms(4), pump)
		r.Submit(Low, ms(2), note("write2"))
		clk.RunFor(ms(5))
		r.Submit(High, ms(1), note("retransmit"))
		r.Submit(Low, ms(2), note("write3"))
		clk.RunFor(ms(100))
		if r.QueueLen() != 0 || busy(r) {
			t.Fatalf("class %d: resource not drained", pumpClass)
		}
		if r.BusyTime() != ms(2+2+2+1+6*4) {
			t.Fatalf("class %d: BusyTime = %v", pumpClass, r.BusyTime())
		}
		return log
	}
	low, idle := run(Low), run(Idle)
	if len(low) != 10 || len(idle) != len(low) {
		t.Fatalf("completions: %d with Low, %d with Idle, want 10", len(low), len(idle))
	}
	for i := range low {
		if low[i] != idle[i] {
			t.Fatalf("completion %d: %v with Low, %v with Idle", i, low[i], idle[i])
		}
	}
}
