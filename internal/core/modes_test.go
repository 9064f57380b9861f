package core

import (
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/netsim"
	"rtpb/internal/xkernel"
)

func TestWriteThroughTransmitsPerClientWrite(t *testing.T) {
	c := newTestCluster(t, clusterOpts{
		seed: 31,
		link: netsim.LinkParams{Delay: ms(2)},
		mutateP: func(cfg *Config) {
			cfg.Scheduling = ScheduleWriteThrough
		},
	})
	c.registerOK(t, spec("x", ms(40), ms(50), ms(400)))
	sends := 0
	c.primary.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
	writes := 0
	stop := c.writeEvery("x", ms(40), func(i int) []byte { writes++; return []byte{byte(i)} })
	c.clk.RunFor(time.Second)
	stop.Stop()
	c.clk.RunFor(ms(50)) // let the final write's transmission drain
	if sends != writes {
		t.Fatalf("write-through sent %d updates for %d writes", sends, writes)
	}
}

func TestWriteThroughAdmissionUsesClientPeriod(t *testing.T) {
	cfg := testConfig()
	cfg.Scheduling = ScheduleWriteThrough
	a := newAdmission(cfg)
	// Loose external window (would give r = 172.5ms) but fast client
	// writes: the schedulability test must see the client period.
	_, d := a.admit(spec("x", ms(10), ms(50), ms(400)))
	if !d.Accepted {
		t.Fatalf("rejected: %s", d.Reason)
	}
	if d.UpdatePeriod != ms(10) {
		t.Fatalf("write-through update period = %v, want client period 10ms", d.UpdatePeriod)
	}
}

func TestDisableGapRecoverySuppressesRetransmitRequests(t *testing.T) {
	run := func(disable bool) (gaps, retransmits int) {
		c := newTestCluster(t, clusterOpts{
			seed: 33,
			link: netsim.LinkParams{Delay: ms(2), LossProb: 0.3},
			mutateB: func(cfg *Config) {
				cfg.DisableGapRecovery = disable
			},
		})
		c.registerOK(t, spec("x", ms(40), ms(50), ms(200)))
		c.backup.OnGap = func(uint32, uint64, uint64) { gaps++ }
		c.primary.OnRetransmitRequest = func(uint32) { retransmits++ }
		stop := c.writeEvery("x", ms(20), func(i int) []byte { return []byte{byte(i)} })
		defer stop.Stop()
		c.clk.RunFor(3 * time.Second)
		return gaps, retransmits
	}
	gaps, retransmits := run(false)
	if gaps == 0 || retransmits == 0 {
		t.Fatalf("baseline run: gaps=%d retransmits=%d, want both > 0", gaps, retransmits)
	}
	gaps, retransmits = run(true)
	if gaps == 0 {
		t.Fatal("ablated run detected no gaps at 30% loss")
	}
	if retransmits != 0 {
		t.Fatalf("ablated run still sent %d retransmit requests", retransmits)
	}
}

func TestSchedulingModeStrings(t *testing.T) {
	if ScheduleNormal.String() != "normal" ||
		ScheduleCompressed.String() != "compressed" ||
		ScheduleWriteThrough.String() != "write-through" {
		t.Fatal("SchedulingMode.String mismatch")
	}
	if SchedulingMode(77).String() != "SchedulingMode(77)" {
		t.Fatalf("unknown mode String() = %q", SchedulingMode(77).String())
	}
}

// discardTransport is a network that loses everything: what a sender does
// per datagram, without a receiver's share.
type discardTransport struct{}

func (discardTransport) Send(string, []byte) error                     { return nil }
func (discardTransport) SetReceiver(func(from string, payload []byte)) {}
func (discardTransport) LocalAddr() string                             { return "primary" }
func (discardTransport) Close() error                                  { return nil }

// One compressed-mode pump step on the modelled processor: the send itself
// and the submission of the next. A regression here shows as allocations
// per send, which the pump multiplies by its rate.
func TestPumpStepAllocs(t *testing.T) {
	clk := clock.NewSim()
	port, err := xkernel.NewStack(discardTransport{}, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(Config{Clock: clk, Port: port, Peer: "backup:7000", Ell: ms(1), Scheduling: ScheduleCompressed})
	if err != nil {
		t.Fatal(err)
	}
	s := spec("x", ms(40), ms(50), ms(400))
	if d := p.Register(s); !d.Accepted {
		t.Fatal(d.Reason)
	}
	p.ClientWrite("x", make([]byte, s.Size), nil)
	sends := 0
	p.OnSend = func(uint32, string, uint64, time.Time) { sends++ }
	step := DefaultCosts().sendCost(s.Size)
	clk.RunFor(ms(10))
	sends = 0
	const steps = 1000
	allocs := testing.AllocsPerRun(steps, func() { clk.RunFor(step) })
	if sends < steps {
		t.Fatalf("%d pump sends in %d steps", sends, steps)
	}
	// The pump's closure, the modelled processor's closure and event, and
	// the message NewMessage copies the encoding into (two).
	if allocs > 5 {
		t.Fatalf("a pump step allocates %v times, pinned at 5", allocs)
	}
}
