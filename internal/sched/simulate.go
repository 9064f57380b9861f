package sched

import (
	"fmt"
	"time"
)

// Policy selects the scheduling algorithm used by Simulate and by the RTPB
// primary's update scheduler.
type Policy int

const (
	// PolicyEDF is preemptive earliest-deadline-first.
	PolicyEDF Policy = iota + 1
	// PolicyRM is preemptive rate-monotonic (smaller period = higher
	// priority).
	PolicyRM
	// PolicyDCS is distance-constrained scheduling via Han & Lin's
	// pinwheel scheduler S_r: periods are first specialized to a harmonic
	// set (SpecializeSr) and the result is scheduled rate-monotonically,
	// which yields exactly periodic completions (zero phase variance).
	PolicyDCS
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyEDF:
		return "EDF"
	case PolicyRM:
		return "RM"
	case PolicyDCS:
		return "DCS"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Invocation records one completed job of a task in a simulation trace.
type Invocation struct {
	// Release is the job's release instant, relative to simulation start.
	Release time.Duration
	// Finish is the completion instant of the job.
	Finish time.Duration
	// Missed reports whether the job finished after its absolute deadline.
	Missed bool
}

// Trace is the result of a scheduler simulation.
type Trace struct {
	// Tasks is the task set that was actually dispatched. Under PolicyDCS
	// this is the S_r-specialized set; otherwise it is the input set.
	Tasks TaskSet
	// Invocations holds, per task, every job completed within the horizon.
	Invocations [][]Invocation
	// Misses is the total number of deadline misses.
	Misses int
}

type simJob struct {
	task      int
	release   time.Duration
	deadline  time.Duration
	remaining time.Duration
}

// Simulate executes the task set on a preemptive uniprocessor under the
// given policy for the given horizon and returns the completion trace.
// Under PolicyDCS the set is specialized first; Simulate does not require
// the set to be schedulable — overruns simply show up as deadline misses,
// which is exactly what the phase-variance experiments need to observe.
func Simulate(ts TaskSet, policy Policy, horizon time.Duration) (*Trace, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("sched: non-positive horizon %v", horizon)
	}
	dispatch := ts.Clone()
	if policy == PolicyDCS {
		spec, ok := SpecializeSr(ts)
		if !ok {
			return nil, fmt.Errorf("sched: task set with utilization %.3f is not S_r-specializable", ts.Utilization())
		}
		dispatch = spec
	}

	tr := &Trace{
		Tasks:       dispatch,
		Invocations: make([][]Invocation, len(dispatch)),
	}

	nextRelease := make([]time.Duration, len(dispatch))
	for i, t := range dispatch {
		nextRelease[i] = t.Offset
	}
	var ready []*simJob

	higherPriority := func(a, b *simJob) bool {
		switch policy {
		case PolicyEDF:
			if a.deadline != b.deadline {
				return a.deadline < b.deadline
			}
			if a.release != b.release {
				return a.release < b.release
			}
		default: // RM and DCS dispatch rate-monotonically.
			pa, pb := dispatch[a.task].Period, dispatch[b.task].Period
			if pa != pb {
				return pa < pb
			}
		}
		return a.task < b.task
	}

	now := time.Duration(0)
	for now < horizon {
		// Release all jobs due at or before now.
		for i := range dispatch {
			for nextRelease[i] <= now {
				ready = append(ready, &simJob{
					task:      i,
					release:   nextRelease[i],
					deadline:  nextRelease[i] + dispatch[i].Deadline(),
					remaining: dispatch[i].WCET,
				})
				nextRelease[i] += dispatch[i].Period
			}
		}

		// Earliest future release bounds how long the chosen job may run
		// before a preemption decision.
		nextRel := horizon
		for i := range dispatch {
			if nextRelease[i] < nextRel {
				nextRel = nextRelease[i]
			}
		}

		// Pick the highest-priority ready job.
		var run *simJob
		runIdx := -1
		for i, j := range ready {
			if run == nil || higherPriority(j, run) {
				run, runIdx = j, i
			}
		}
		if run == nil {
			now = nextRel
			continue
		}

		end := now + run.remaining
		if nextRel < end {
			run.remaining -= nextRel - now
			now = nextRel
			continue
		}
		now = end
		missed := end > run.deadline
		if missed {
			tr.Misses++
		}
		tr.Invocations[run.task] = append(tr.Invocations[run.task], Invocation{
			Release: run.release,
			Finish:  end,
			Missed:  missed,
		})
		ready = append(ready[:runIdx], ready[runIdx+1:]...)
	}
	return tr, nil
}

// Finishes returns the completion instants of the given task's jobs.
func (tr *Trace) Finishes(task int) []time.Duration {
	invs := tr.Invocations[task]
	out := make([]time.Duration, len(invs))
	for i, iv := range invs {
		out[i] = iv.Finish
	}
	return out
}

// PhaseVariance reports the measured phase variance of the given task in
// the trace, against the period that was actually dispatched (the
// specialized period under PolicyDCS). The first skip gaps are ignored as
// start-up transient. The second result is false if the trace holds fewer
// than skip+2 completions.
func (tr *Trace) PhaseVariance(task, skip int) (time.Duration, bool) {
	return MeasuredPhaseVariance(tr.Finishes(task), tr.Tasks[task].Period, skip)
}
