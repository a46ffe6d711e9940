package trace

import (
	"sync"
	"sync/atomic"
)

// Cache deduplicates workload generation across experiments. A sweep runs
// every profile under five consistency models, but the generated trace
// depends only on (profile, cores, instructions, seed) — never on the model —
// so the five machines can replay one shared, read-only copy instead of
// regenerating it per model.
//
// Cached workloads are shared by reference: callers (and the machines they
// build) must treat the returned Programs as immutable. The simulator only
// ever reads installed programs (core fetch copies instructions by value),
// which is what makes sharing one trace across concurrently running machines
// sound.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheKey struct {
	name  string
	cores int
	inst  int
	seed  uint64
}

// cacheEntry decouples generation from the cache lock: the map is held only
// long enough to find or insert the entry, and the (expensive) Build runs
// under the entry's once, so concurrent requests for different keys generate
// in parallel while requests for the same key generate exactly once.
type cacheEntry struct {
	once sync.Once
	w    Workload
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]*cacheEntry)}
}

// Workload returns the deterministic workload for (p, cores, instPerCore,
// seed), generating it on first use and replaying the cached copy afterwards.
// It is safe for concurrent use.
func (c *Cache) Workload(p Profile, cores, instPerCore int, seed uint64) Workload {
	k := cacheKey{name: p.Name, cores: cores, inst: instPerCore, seed: seed}
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		e = &cacheEntry{}
		c.m[k] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() { e.w = Build(p, cores, instPerCore, seed) })
	return e.w
}

// Stats reports cache effectiveness: hits count requests served from an
// already-inserted entry, misses count first-time generations.
func (c *Cache) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Len returns the number of distinct cached workloads.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// shared is the process-wide cache used by the benchmark entry points: one
// sweep process regenerates each trace once, no matter how many models or
// workers replay it.
var shared = NewCache()

// Shared returns the process-wide cache.
func Shared() *Cache { return shared }
