package shard

// Router maintains the object→shard map: the single mutable source of
// truth for which group owns each object. Routes survive per-shard
// failovers untouched — a takeover changes which replica serves the
// shard, not which shard owns the object — and are rebound only by
// migration.
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
