package shard

import "sort"

// Router maintains the object→shard map: the single mutable source of
// truth for which group owns each object. Routes survive per-shard
// failovers untouched — a takeover changes which replica serves the
// shard, not which shard owns the object — and are rebound only by
// migration or removal.
type Router struct {
	byObject map[string]int
}

// NewRouter builds an empty routing table.
func NewRouter() *Router {
	return &Router{byObject: make(map[string]int)}
}

// Assign binds (or rebinds, after a migration) an object to a shard.
func (r *Router) Assign(name string, shard int) { r.byObject[name] = shard }

// Lookup resolves an object's owning shard.
func (r *Router) Lookup(name string) (int, bool) {
	i, ok := r.byObject[name]
	return i, ok
}

// Forget drops a removed object's route.
func (r *Router) Forget(name string) { delete(r.byObject, name) }

// Objects returns every routed object name in sorted order.
func (r *Router) Objects() []string {
	out := make([]string, 0, len(r.byObject))
	for name := range r.byObject {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len reports the total number of routed objects.
func (r *Router) Len() int { return len(r.byObject) }
