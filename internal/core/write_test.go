package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"rtpb/internal/clock"
	"rtpb/internal/durable"
	"rtpb/internal/wire"
	"rtpb/internal/xkernel"
)

// This file tests the primary's write path: the image buffer an install
// replaces is recycled for the object's next write, so no reader may
// ever see one write's bytes through another's.

// fill returns size bytes that differ from every other k's.
func fill(size, k int) []byte {
	v := make([]byte, size)
	for j := range v {
		v[j] = byte(k*7 + j)
	}
	return v
}

// walApplies decodes the value of every apply record logged to dir, in
// log order.
func walApplies(t *testing.T, dir string) [][]byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		for len(b) > 0 {
			r, n, err := durable.DecodeRecord(b)
			if err != nil {
				t.Fatalf("%s: %v", seg, err)
			}
			if r.Kind == durable.KindApply {
				out = append(out, append([]byte(nil), r.Value...))
			}
			b = b[n:]
		}
	}
	return out
}

// Recycled images are never seen twice: a caller may scribble its buffer
// the moment ClientWrite returns; writes queued in one turn install in
// order, each its own bytes, and the backup converges on the last; and a
// Value or Certificate copy, like the durable record of each write, keeps
// its bytes after later writes recycle the buffer it was taken from.
func TestRecycledImagesAreNeverSeenTwice(t *testing.T) {
	dir := t.TempDir()
	dlog, err := durable.Open(durable.Config{Dir: dir, Sync: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, clusterOpts{seed: 1, mutateP: func(cfg *Config) { cfg.Durable = dlog }})
	const size = 256
	s := spec("x", ms(40), ms(50), ms(250))
	s.Size = size
	c.registerOK(t, s)

	var written [][]byte
	write := func(k int, done func(time.Duration, error)) {
		buf := fill(size, k)
		written = append(written, fill(size, k))
		c.primary.ClientWrite("x", buf, done)
		for j := range buf {
			buf[j] = 0xEE
		}
	}
	type copyAt struct {
		k     int
		value []byte
		cert  Certificate
	}
	var copies []copyAt
	for k := 0; k < 5; k++ {
		write(k, nil)
		c.clk.RunFor(ms(20))
		v, _, _ := c.primary.Value("x")
		cert, _ := c.primary.Certificate("x")
		copies = append(copies, copyAt{k, v, cert})
	}

	var installed []int
	for k := 5; k < 8; k++ {
		write(k, func(_ time.Duration, err error) {
			if err != nil {
				t.Errorf("write %d: %v", k, err)
			}
			installed = append(installed, k)
			if v, _, _ := c.primary.Value("x"); !bytes.Equal(v, written[k]) {
				t.Errorf("write %d installed %x, want %x", k, v[:8], written[k][:8])
			}
		})
	}
	c.clk.RunFor(ms(300))

	if want := []int{5, 6, 7}; !slices.Equal(installed, want) {
		t.Fatalf("queued writes installed in order %v, want %v", installed, want)
	}
	for _, cp := range copies {
		if !bytes.Equal(cp.value, written[cp.k]) || !bytes.Equal(cp.cert.Value, written[cp.k]) {
			t.Errorf("copies taken after write %d now hold %x and %x, want %x",
				cp.k, cp.value[:8], cp.cert.Value[:8], written[cp.k][:8])
		}
	}
	if v, _, _ := c.backup.Value("x"); !bytes.Equal(v, written[7]) {
		t.Errorf("backup holds %x, want the last write's %x", v, written[7][:8])
	}
	c.primary.Stop()
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	logged := walApplies(t, dir)
	if len(logged) != len(written) {
		t.Fatalf("%d apply records, want %d", len(logged), len(written))
	}
	for k := range written {
		if !bytes.Equal(logged[k], written[k]) {
			t.Errorf("record of write %d holds %x, want %x", k, logged[k][:8], written[k][:8])
		}
	}
}

// perWrite reports what one steady-state client write of size bytes
// allocates on a SimClock primary, in allocations (testing.AllocsPerRun's
// whole count) and bytes: the write, its processor submission and its
// install.
func perWrite(t *testing.T, size int) (allocs, bytes float64) {
	t.Helper()
	clk := clock.NewSim()
	port, err := xkernel.NewStack(discardTransport{}, clk, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPrimary(Config{Clock: clk, Port: port, Ell: ms(1)})
	if err != nil {
		t.Fatal(err)
	}
	s := spec("x", ms(40), ms(50), ms(400))
	s.Size = size
	if d := p.Register(s); !d.Accepted {
		t.Fatal(d.Reason)
	}
	data := fill(size, 1)
	cost := DefaultCosts().clientCost(size)
	done := 0
	count := func(time.Duration, error) { done++ }
	write := func() {
		p.ClientWrite("x", data, count)
		clk.RunFor(cost)
	}
	const runs = 1000
	allocs = testing.AllocsPerRun(runs, write)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	if done != 2*runs+1 {
		t.Fatalf("%d of %d writes installed", done, 2*runs+1)
	}
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// A steady-state client write copies into the image its object's last
// install freed, so what it allocates does not grow with its size.
func TestClientWriteAllocsIndependentOfSize(t *testing.T) {
	smallAllocs, _ := perWrite(t, 64)
	bulkAllocs, bulkBytes := perWrite(t, 16<<10)
	t.Logf("per write: 64 B %.1f allocs, 16 KiB %.1f allocs and %.0f B", smallAllocs, bulkAllocs, bulkBytes)
	if bulkBytes >= 1<<10 {
		t.Errorf("a 16 KiB write allocates %.0f B, want under 1 KiB", bulkBytes)
	}
	if bulkAllocs > smallAllocs {
		t.Errorf("a 16 KiB write allocates %.1f times, a 64 B write %.1f", bulkAllocs, smallAllocs)
	}
}

// A value no backup could decode is refused where it enters: Register
// rejects a size over wire.MaxPayload, and ClientWrite finishes such a
// value with ErrValueTooLarge and installs nothing, though the object's
// declared size is small.
func TestOversizedValuesAreRefused(t *testing.T) {
	c := newTestCluster(t, clusterOpts{seed: 1})
	big := spec("big", ms(40), ms(50), ms(250))
	big.Size = wire.MaxPayload + 1
	if d := c.primary.Register(big); d.Accepted || !strings.Contains(d.Reason, "payload limit") {
		t.Fatalf("Register(size %d) = %+v, want a rejection naming the payload limit", big.Size, d)
	}
	c.registerOK(t, spec("x", ms(40), ms(50), ms(250)))
	var got error
	finished := false
	c.primary.ClientWrite("x", make([]byte, wire.MaxPayload+1), func(_ time.Duration, err error) {
		finished, got = true, err
	})
	c.clk.RunFor(ms(100))
	if !finished || !errors.Is(got, ErrValueTooLarge) {
		t.Fatalf("oversized write finished=%v with %v, want ErrValueTooLarge", finished, got)
	}
	if _, _, ok := c.primary.Value("x"); ok {
		t.Fatal("the refused write installed a value")
	}
}

// An object name travels behind a 16-bit length, on the wire and in the
// durable spec record. A name one byte over wire.MaxString is refused at
// registration, before anything is sent or logged; a name of exactly
// wire.MaxString bytes reaches the backup and is recovered from the log,
// and so is every record after the refused one.
func TestLongNamesReplicateOrAreRefused(t *testing.T) {
	dir := t.TempDir()
	dlog, err := durable.Open(durable.Config{Dir: dir, Sync: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, clusterOpts{seed: 1, mutateP: func(cfg *Config) { cfg.Durable = dlog }})
	longest := strings.Repeat("n", wire.MaxString)
	tooLong := longest + "n"
	if d := c.primary.Register(spec(tooLong, ms(40), ms(50), ms(250))); d.Accepted || !strings.Contains(d.Reason, "name") {
		t.Fatalf("Register(%d-byte name) = %+v, want a rejection naming the name", len(tooLong), d)
	}
	c.registerOK(t, spec(longest, ms(40), ms(50), ms(250)))
	c.primary.ClientWrite(longest, []byte("v"), nil)
	c.clk.RunFor(ms(200))
	if _, ok := c.backup.Spec(longest); !ok {
		t.Fatalf("the backup does not hold the %d-byte name", len(longest))
	}
	if v, _, ok := c.backup.Value(longest); !ok || string(v) != "v" {
		t.Fatalf("backup value = %q (ok=%v), want %q", v, ok, "v")
	}
	for _, r := range []*Replica{c.primary, c.backup} {
		if _, ok := r.Spec(tooLong); ok {
			t.Fatal("a replica holds the refused name")
		}
	}
	c.primary.Stop()
	if err := dlog.Close(); err != nil {
		t.Fatal(err)
	}
	st, rs, err := durable.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stopped != "" || len(st.Objects) != 1 || st.Objects[0].Name != longest || string(st.Objects[0].Value) != "v" {
		t.Fatalf("recovered %d objects, stopped %q; want the %d-byte name with its value, cleanly",
			len(st.Objects), rs.Stopped, len(longest))
	}
}
