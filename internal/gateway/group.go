package gateway

import "sort"

// GroupStats counts one group's broadcast activity.
type GroupStats struct {
	// Frames counts object-frames fanned out (one per object per tick,
	// regardless of member count — the read amplification the gateway
	// absorbs).
	Frames uint64
}

// Group is a named subscription set: every member receives one
// certificate frame per bound object per broadcast tick. Membership and
// object sets iterate in sorted order so fan-out is deterministic under
// the chaos harness's byte-identical replay requirement.
type Group struct {
	name    string
	objects []string // sorted, deduplicated
	members map[uint64]*Session
	order   []uint64 // ascending session ids
	stats   GroupStats
}

// Name is the group's identifier.
func (g *Group) Name() string { return g.name }

// Objects lists the bound objects in sorted order (a copy).
func (g *Group) Objects() []string {
	return append([]string(nil), g.objects...)
}

// Members reports the current member count.
func (g *Group) Members() int { return len(g.members) }

// Stats snapshots the group's broadcast counters.
func (g *Group) Stats() GroupStats { return g.stats }

func (g *Group) add(s *Session) {
	if _, ok := g.members[s.id]; ok {
		return
	}
	g.members[s.id] = s
	i := sort.Search(len(g.order), func(i int) bool { return g.order[i] >= s.id })
	g.order = append(g.order, 0)
	copy(g.order[i+1:], g.order[i:])
	g.order[i] = s.id
}

func (g *Group) remove(id uint64) {
	if _, ok := g.members[id]; !ok {
		return
	}
	delete(g.members, id)
	i := sort.Search(len(g.order), func(i int) bool { return g.order[i] >= id })
	if i < len(g.order) && g.order[i] == id {
		g.order = append(g.order[:i], g.order[i+1:]...)
	}
}
