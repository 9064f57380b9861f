package core

import (
	"strings"
	"testing"
	"time"

	"rtpb/internal/durable"
	"rtpb/internal/netsim"
)

// TestResumeFromDiskRebuildsFencedPrimary drives the restarted-primary
// path: a recovered image of three specs — two with values, one the
// primary can no longer admit — comes back with its IDs in recovered
// order, the values seeded, the epoch fenced one past the recovered
// one, and exactly one error naming the rejected object.
func TestResumeFromDiskRebuildsFencedPrimary(t *testing.T) {
	f, hs := fabric(t, 1, netsim.LinkParams{}, "p")
	dlog, err := durable.Open(durable.Config{Dir: t.TempDir(), Sync: true, NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer dlog.Close()
	p, err := NewPrimary(Config{Clock: f.Clock, Port: hs[0].Port, Ell: ms(5), Durable: dlog})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	state := func(id uint32, s ObjectSpec, value string) durable.ObjectState {
		d := durable.ObjectState{ID: id, Name: s.Name, Size: uint32(s.Size),
			Period: int64(s.UpdatePeriod), DeltaP: int64(s.Constraint.DeltaP), DeltaB: int64(s.Constraint.DeltaB)}
		if value != "" {
			d.HasData, d.Epoch, d.Seq, d.Version, d.Value = true, 4, 7, int64(time.Second), []byte(value)
		}
		return d
	}
	st := &durable.State{Epoch: 4, Objects: []durable.ObjectState{
		state(1, spec("alt", ms(40), ms(50), ms(250)), "9000ft"),
		state(2, spec("speed", ms(40), ms(50), ms(250)), "240kt"),
		state(3, spec("impossible", ms(10), ms(10), ms(11)), ""),
	}}

	seeded, errs := p.ResumeFromDisk(st)
	if seeded != 2 {
		t.Errorf("seeded = %d, want 2", seeded)
	}
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), `"impossible"`) {
		t.Errorf("errors = %v, want exactly one naming %q", errs, "impossible")
	}
	if got := p.Epoch(); got != 5 {
		t.Errorf("epoch = %d, want the recovered 4 + 1", got)
	}
	if got := p.RecoverySource(); got != "disk" {
		t.Errorf("RecoverySource = %q, want disk", got)
	}
	ids := p.adm.orderedIDs()
	if len(ids) != 2 {
		t.Fatalf("%d objects resumed, want 2", len(ids))
	}
	for i, want := range []durable.ObjectState{st.Objects[0], st.Objects[1]} {
		if o := p.adm.objects[ids[i]]; o.id != want.ID || o.spec.Name != want.Name {
			t.Errorf("object %d = %d/%q, want %d/%q", i, o.id, o.spec.Name, want.ID, want.Name)
		}
		if v, _, ok := p.Value(want.Name); !ok || string(v) != string(want.Value) {
			t.Errorf("%q = %q (ok=%v), want %q", want.Name, v, ok, want.Value)
		}
	}
}
