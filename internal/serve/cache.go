package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"sesa/internal/config"
	"sesa/internal/runner"
)

// jobKey canonicalizes one job into its content address: a hash over the
// fully resolved machine configuration (model applied exactly as the runner
// applies it), the workload profile, the trace scale and seed, and the
// effective cycle bound. Everything a job's observable result depends on is
// in the key; everything it does not (submission order, worker count, wall
// clock, the clock stepper, whose two modes give identical results) is out,
// so two submissions of the same experiment always collide — which is the
// point.
//
// %#v is a faithful canonical form here: both structs are flat value types
// (ints, bools, float64s, strings) and Go prints float64s with shortest
// round-trip precision.
func jobKey(j runner.Job) string {
	cfg := config.Default(j.Model)
	if j.Config != nil {
		cfg = *j.Config
	}
	cfg.Model = j.Model
	h := sha256.New()
	fmt.Fprintf(h, "cfg=%#v\nprofile=%#v\nn=%d\nseed=%d\nmax=%d\n",
		cfg, j.Profile, j.InstPerCore, j.Seed, j.DefaultMaxCycles())
	return hex.EncodeToString(h.Sum(nil))
}

// cachedResult is the deterministic slice of a runner.Result: statistics,
// characterization and the (deterministic) error. Job identity,
// index and wall clock are rebound at lookup time.
type cachedResult struct {
	r runner.Result
}

// resultCache is the content-addressed result store behind sweep
// deduplication: a bounded LRU keyed by jobKey. Only deterministic results
// may be stored (the server refuses canceled ones), so a hit is
// byte-identical to a re-run.
type resultCache struct {
	mu      sync.Mutex
	max     int
	lru     *list.List               // of cacheEntry, front = most recent
	entries map[string]*list.Element // key -> element in lru
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	key string
	res cachedResult
}

// newResultCache builds a cache bounded to max entries (max <= 0 disables
// caching: every get misses, every put is dropped).
func newResultCache(max int) *resultCache {
	return &resultCache{max: max, lru: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the cached result for key, rebound to job j at index i.
func (c *resultCache) get(key string, i int, j runner.Job) (runner.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return runner.Result{}, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	r := el.Value.(cacheEntry).res.r
	r.Job = j
	r.Index = i
	r.Wall = 0 // a hit costs no simulation time
	return r, true
}

// put stores a completed job's result under key, evicting the least recently
// used entry past the bound. Canceled results are refused: where the cut
// landed depends on the host scheduler, so caching one would serve
// non-deterministic bytes to a later identical submission.
func (c *resultCache) put(key string, r runner.Result) {
	if c.max <= 0 || r.Canceled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(cacheEntry{key: key, res: cachedResult{r: r}})
	for c.lru.Len() > c.max {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.entries, el.Value.(cacheEntry).key)
	}
}

// stats returns the cumulative hit/miss counters and the current size.
func (c *resultCache) stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.lru.Len()
}
