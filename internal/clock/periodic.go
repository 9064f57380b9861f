package clock

import "time"

// Periodic runs a callback at a fixed period on a Clock. Firing times are
// drift-free: the k-th invocation is released at start + k*period
// regardless of how long earlier callbacks took, matching the periodic task
// model of the paper (release instants I_k with nominal separation p_i).
type Periodic struct {
	clk     Clock
	period  time.Duration
	fn      func()
	event   *Event
	next    time.Time
	stopped bool
}

// NewPeriodic schedules fn to run every period, with the first invocation
// after offset. It panics if period is not positive, since a zero-period
// task would wedge the event loop; periods are configuration, so this is a
// programming error rather than a runtime condition.
func NewPeriodic(clk Clock, offset, period time.Duration, fn func()) *Periodic {
	if period <= 0 {
		panic("clock: non-positive period for periodic task")
	}
	p := &Periodic{clk: clk, period: period, fn: fn}
	p.next = clk.Now().Add(offset)
	p.event = clk.ScheduleAt(p.next, p.tick)
	return p
}

func (p *Periodic) tick() {
	if p.stopped {
		return
	}
	p.next = p.next.Add(p.period)
	// Re-anchor across wall-clock steps. Drift-free release instants
	// assume the clock's reading advances continuously; on a faulty
	// timebase (SkewedClock) a backward step parks the reading, so the
	// stored next instant runs ever further ahead of it and the cadence
	// collapses toward zero ticks, while a forward step leaves next ever
	// further behind and every tick fires immediately (a tick storm).
	// When next deviates from now by more than one full period in either
	// direction, re-anchor it one period out. On a continuous clock the
	// deviation never exceeds a period (late ticks still catch up
	// drift-free), so releases stay exactly start + k·period.
	if d := p.next.Sub(p.clk.Now()); d > p.period || d <= -p.period {
		p.next = p.clk.Now().Add(p.period)
	}
	p.event = p.clk.ScheduleAt(p.next, p.tick)
	p.fn()
}

// SetPeriod changes the period for subsequent invocations. The currently
// scheduled invocation keeps its release time.
func (p *Periodic) SetPeriod(d time.Duration) {
	if d <= 0 {
		panic("clock: non-positive period for periodic task")
	}
	p.period = d
}

// Stop cancels all future invocations. Safe to call more than once.
func (p *Periodic) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.event.Cancel()
}
