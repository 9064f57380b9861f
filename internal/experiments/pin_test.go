package experiments

import (
	"testing"
	"time"

	"rtpb/internal/core"
)

// pinCounters are the counts of a Run that repeat exactly for one seed.
type pinCounters struct {
	Sends, Applies, Gaps, RetransmitRequests, Delivered, DroppedLoss, Excursions int
}

// TestRunCountersPinned pins Run's counters for three cells at the values
// recorded before the node-assembly refactor: the benchmark's model cell,
// the same cell with admission off (and so the unbounded send queue), and
// with gap recovery disabled. A refactor of how the simulated pair is
// built must leave every one of them where it is.
func TestRunCountersPinned(t *testing.T) {
	model := func() Params {
		return Params{
			Seed:             1,
			Delay:            2 * time.Millisecond,
			Jitter:           time.Millisecond,
			Loss:             0.10,
			Ell:              5 * time.Millisecond,
			Objects:          32,
			ObjectSize:       64,
			ClientPeriod:     100 * time.Millisecond,
			DeltaP:           120 * time.Millisecond,
			Window:           200 * time.Millisecond,
			Scheduling:       core.ScheduleNormal,
			AdmissionControl: true,
			Duration:         10 * time.Second,
		}
	}
	noAdmission, noGapRecovery := model(), model()
	noAdmission.AdmissionControl = false
	noAdmission.Objects = 256 // past what admission would take: the queue grows
	noGapRecovery.DisableGapRecovery = true
	for _, tc := range []struct {
		name string
		p    Params
		want pinCounters
	}{
		{"model", model(), pinCounters{3585, 3203, 338, 338, 3617, 419, 27}},
		{"admission-off", noAdmission, pinCounters{17219, 15505, 1513, 1512, 17619, 1867, 15283}},
		{"no-gap-recovery", noGapRecovery, pinCounters{3278, 2936, 316, 0, 3043, 348, 19}},
	} {
		r, err := Run(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := pinCounters{r.Sends, r.Applies, r.Gaps, r.RetransmitRequests, r.Net.Delivered, r.Net.DroppedLoss, r.Excursions}
		if got != tc.want {
			t.Errorf("%s: counters %+v, pinned %+v", tc.name, got, tc.want)
		}
	}
}
