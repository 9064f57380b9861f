package netsim

import (
	"flag"
	"math/rand"
	"testing"
	"time"

	"rtpb/internal/clock"
)

// seedFlag shifts every property test's fixed RNG seed so alternative
// schedules can be explored on demand (go test ./internal/netsim
// -seed=N); the default 0 keeps runs byte-identical to the committed
// seeds.
var seedFlag = flag.Int64("seed", 0, "offset added to the property tests' fixed RNG seeds")

func propRand(base int64) *rand.Rand { return rand.New(rand.NewSource(base + *seedFlag)) }

// TestStatsConservation checks the fabric's accounting identity for
// arbitrary traffic patterns without duplication: every sent datagram is
// either delivered or counted in exactly one drop category.
func TestStatsConservation(t *testing.T) {
	rng := propRand(13)
	for trial := 0; trial < 40; trial++ {
		clk := clock.NewSim()
		n := New(clk, int64(trial)+*seedFlag)
		if err := n.SetDefaultLink(LinkParams{
			Delay:    time.Duration(rng.Intn(5)) * time.Millisecond,
			Jitter:   time.Duration(rng.Intn(3)) * time.Millisecond,
			LossProb: rng.Float64() * 0.5,
		}); err != nil {
			t.Fatal(err)
		}
		hosts := []string{"a", "b", "c"}
		eps := map[string]*Endpoint{}
		for _, h := range hosts {
			ep, err := n.Endpoint(h)
			if err != nil {
				t.Fatal(err)
			}
			eps[h] = ep
			if h != "c" { // c never sets a receiver
				ep.SetReceiver(func(string, []byte) {})
			}
		}
		sends := 50 + rng.Intn(200)
		for i := 0; i < sends; i++ {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			if rng.Intn(10) == 0 {
				eps[src].SetDown(rng.Intn(2) == 0)
			}
			if rng.Intn(12) == 0 {
				// Flip partition state between a random pair: cut datagrams
				// must land in their own drop category.
				x, y := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
				if x != y {
					if n.cuts[[2]string{x, y}] {
						n.Heal(x, y)
					} else if rng.Intn(2) == 0 {
						n.Partition(x, y)
					} else {
						n.PartitionOneWay(x, y)
					}
				}
			}
			_ = eps[src].Send(dst, []byte{byte(i)})
		}
		// Bring everyone back so in-flight datagrams can land, and drain.
		for _, ep := range eps {
			ep.SetDown(false)
		}
		clk.RunFor(time.Second)
		st := n.Stats()
		if st.Sent != sends {
			t.Fatalf("trial %d: Sent=%d, want %d", trial, st.Sent, sends)
		}
		accounted := st.Delivered + st.DroppedLoss + st.DroppedDown +
			st.DroppedNoReceiver + st.DroppedPartition
		if accounted != sends {
			t.Fatalf("trial %d: accounting leak: %d sent vs %d accounted (%+v)",
				trial, sends, accounted, st)
		}
	}
}

// TestDeliveryDelayAlwaysWithinBound: with any (delay, jitter) pair, no
// datagram arrives before Delay or after Bound().
func TestDeliveryDelayAlwaysWithinBound(t *testing.T) {
	rng := propRand(17)
	for trial := 0; trial < 40; trial++ {
		clk := clock.NewSim()
		n := New(clk, int64(trial)+*seedFlag)
		lp := LinkParams{
			Delay:  time.Duration(rng.Intn(10)) * time.Millisecond,
			Jitter: time.Duration(rng.Intn(10)) * time.Millisecond,
		}
		if err := n.SetDefaultLink(lp); err != nil {
			t.Fatal(err)
		}
		a, _ := n.Endpoint("a")
		b, _ := n.Endpoint("b")
		var bad int
		var sentAt []time.Time
		i := 0
		b.SetReceiver(func(string, []byte) {
			d := clk.Now().Sub(sentAt[i])
			i++
			if d < lp.Delay || d > lp.Bound() {
				bad++
			}
		})
		for k := 0; k < 100; k++ {
			sentAt = append(sentAt, clk.Now())
			_ = a.Send("b", []byte{byte(k)})
			clk.RunFor(lp.Bound() + time.Millisecond) // serialize deliveries
		}
		if bad != 0 {
			t.Fatalf("trial %d: %d deliveries outside [%v, %v]", trial, bad, lp.Delay, lp.Bound())
		}
	}
}
