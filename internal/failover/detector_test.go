package failover

import (
	"testing"
	"time"

	"rtpb/internal/clock"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func cfg() DetectorConfig {
	return DetectorConfig{Interval: ms(50), Timeout: ms(30), MaxMisses: 3}
}

func TestDetectorConfigValidate(t *testing.T) {
	if err := DefaultDetectorConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []DetectorConfig{
		{Interval: 0, Timeout: ms(1), MaxMisses: 1},
		{Interval: ms(1), Timeout: 0, MaxMisses: 1},
		{Interval: ms(1), Timeout: ms(1), MaxMisses: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("Validate(%+v) accepted", c)
		}
	}
	if _, err := NewDetector(clock.NewSim(), DetectorConfig{}, nil, nil); err == nil {
		t.Fatal("NewDetector accepted zero config")
	}
}

func TestDetectorStaysAliveWithAcks(t *testing.T) {
	clk := clock.NewSim()
	var d *Detector
	seq := uint64(0)
	send := func() uint64 {
		seq++
		s := seq
		clk.Schedule(ms(5), func() { d.OnAck(s) }) // peer answers in 5ms
		return s
	}
	dead := false
	d, err := NewDetector(clk, cfg(), send, func() { dead = true })
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	clk.RunFor(2 * time.Second)
	if dead || !d.alive {
		t.Fatal("peer declared dead despite prompt acks")
	}
	if seq < 30 {
		t.Fatalf("only %d pings in 2s at 50ms interval", seq)
	}
	d.Stop()
}

func TestDetectorDeclaresDeadAfterMaxMisses(t *testing.T) {
	clk := clock.NewSim()
	pings := 0
	send := func() uint64 { pings++; return uint64(pings) } // never acked
	var deadAt time.Duration = -1
	d, err := NewDetector(clk, cfg(), send, func() {
		deadAt = clk.Now().Sub(clock.SimEpoch)
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	clk.RunFor(time.Second)
	if deadAt < 0 {
		t.Fatal("silent peer never declared dead")
	}
	// Three timeouts of 30ms chained by immediate resends: dead at 90ms.
	if deadAt != ms(90) {
		t.Fatalf("declared dead at %v, want 90ms", deadAt)
	}
	if pings != 3 {
		t.Fatalf("sent %d pings before declaring dead, want 3 (retry per timeout)", pings)
	}
	if d.alive || d.running {
		t.Fatal("detector still alive/running after declaring dead")
	}
}

func TestDetectorRecoversAfterTransientSilence(t *testing.T) {
	clk := clock.NewSim()
	mute := true
	var d *Detector
	send := func() uint64 {
		s := uint64(clk.Now().UnixNano())
		if !mute {
			clk.Schedule(ms(5), func() { d.OnAck(s) })
		}
		return s
	}
	dead := false
	d, err := NewDetector(clk, cfg(), send, func() { dead = true })
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	clk.RunFor(ms(40)) // one miss (timeout at 30ms), not dead yet
	if d.misses == 0 {
		t.Fatal("no miss recorded during silence")
	}
	mute = false
	clk.RunFor(time.Second)
	if dead {
		t.Fatal("declared dead after transient silence shorter than MaxMisses")
	}
	if d.misses != 0 {
		t.Fatalf("misses = %d after recovery, want 0", d.misses)
	}
}

func TestDetectorStaleAckCountsAsLife(t *testing.T) {
	clk := clock.NewSim()
	var sent []uint64
	send := func() uint64 {
		s := uint64(len(sent) + 1)
		sent = append(sent, s)
		return s
	}
	dead := false
	d, err := NewDetector(clk, cfg(), send, func() { dead = true })
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	// Ack each ping late, after its timeout fired (stale seq).
	clk.Schedule(ms(35), func() { d.OnAck(1) })
	clk.Schedule(ms(95), func() { d.OnAck(2) })
	clk.Schedule(ms(155), func() { d.OnAck(3) })
	clk.RunFor(ms(200))
	if dead {
		t.Fatal("declared dead although stale acks kept arriving")
	}
	d.Stop()
}

func TestDetectorResetAfterDeath(t *testing.T) {
	clk := clock.NewSim()
	send := func() uint64 { return 1 }
	dead := 0
	d, err := NewDetector(clk, cfg(), send, func() { dead++ })
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	clk.RunFor(time.Second)
	if dead != 1 {
		t.Fatalf("onDead fired %d times, want 1", dead)
	}
	d.Reset()
	if !d.alive {
		t.Fatal("not alive after Reset")
	}
	d.Start()
	clk.RunFor(ms(10))
	d.Stop()
	d.Stop() // idempotent
}

func TestDetectorStopCancelsTimeout(t *testing.T) {
	clk := clock.NewSim()
	send := func() uint64 { return 7 }
	dead := false
	d, err := NewDetector(clk, cfg(), send, func() { dead = true })
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	clk.RunFor(ms(10))
	d.Stop()
	clk.RunFor(time.Second)
	if dead {
		t.Fatal("onDead fired after Stop")
	}
}

func TestNameService(t *testing.T) {
	ns := NewNameService()
	if _, _, ok := ns.Lookup("svc"); ok {
		t.Fatal("lookup on empty directory succeeded")
	}
	if err := ns.Set("svc", "primary:7000", 1); err != nil {
		t.Fatal(err)
	}
	addr, epoch, ok := ns.Lookup("svc")
	if !ok || addr != "primary:7000" || epoch != 1 {
		t.Fatalf("Lookup = %v %d %v", addr, epoch, ok)
	}
	// A newer epoch wins; a stale one is rejected.
	if err := ns.Set("svc", "backup:7000", 2); err != nil {
		t.Fatal(err)
	}
	if err := ns.Set("svc", "zombie:7000", 1); err != ErrStaleEpoch {
		t.Fatalf("stale Set err = %v, want ErrStaleEpoch", err)
	}
	if err := ns.Set("svc", "other:7000", 2); err != ErrStaleEpoch {
		t.Fatalf("same-epoch different-addr Set err = %v, want ErrStaleEpoch", err)
	}
	// Idempotent re-assertion is fine.
	if err := ns.Set("svc", "backup:7000", 2); err != nil {
		t.Fatalf("idempotent Set err = %v", err)
	}
	addr, epoch, _ = ns.Lookup("svc")
	if addr != "backup:7000" || epoch != 2 {
		t.Fatalf("final entry = %v %d", addr, epoch)
	}
}
