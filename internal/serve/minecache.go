package serve

import (
	"sync"

	"gpar/internal/graph"
	"gpar/internal/mine"
)

// MineCtxKey identifies one reusable mining preamble: the snapshot
// generation (a proxy for graph identity — every swap bumps it, so stale
// contexts can never be served), the candidate x-label, and the
// fragmentation parameters (d, n) that fix the partition layout. Two mine
// jobs with equal keys share the exact same partitioned, frozen fragments.
type MineCtxKey struct {
	Gen    uint64
	XLabel graph.Label
	D, N   int
}

// mineCtxEntry is one cached (or in-flight) context build. The sync.Once
// makes GetOrBuild single-flight per key: a job arriving while another job
// is still partitioning the same key blocks on the Once and shares the
// result instead of duplicating the work.
type mineCtxEntry struct {
	once sync.Once
	ctx  *mine.Context
}

// MineContextCache is the bounded LRU of mine.Contexts, the serving-side
// realization of "mine once, match many" for the mining preamble itself:
// repeated POST /v1/mine jobs over the same snapshot skip the partition
// and fragment Freeze() entirely. Contexts hold full
// fragment copies of the candidates' d-neighborhoods, so the default
// capacity is small. A snapshot swap purges the cache (and the generation
// in the key makes any racing stale entry unreachable anyway).
type MineContextCache struct {
	mu  sync.Mutex
	lru *lru[MineCtxKey, *mineCtxEntry]
}

// NewMineContextCache returns a cache bounded to capacity contexts
// (minimum 1).
func NewMineContextCache(capacity int) *MineContextCache {
	return &MineContextCache{lru: newLRU[MineCtxKey, *mineCtxEntry](capacity)}
}

// GetOrBuild returns the context for key, building it with build on a
// miss. hit reports whether an existing entry was reused — including the
// case where this call joined an in-flight build started by a concurrent
// job, which also skips the partition work. Eviction drops the cache's
// reference only; jobs already holding an evicted context finish on it
// (contexts are immutable).
func (c *MineContextCache) GetOrBuild(key MineCtxKey, build func() *mine.Context) (ctx *mine.Context, hit bool) {
	c.mu.Lock()
	if e, ok := c.lru.get(key); ok {
		c.mu.Unlock()
		// If the original builder is still running, this blocks until the
		// context is ready; build only runs here in the pathological case
		// where the inserting goroutine has not reached its own Do yet.
		e.once.Do(func() { e.ctx = build() })
		return e.ctx, true
	}
	e := &mineCtxEntry{}
	c.lru.put(key, e)
	c.mu.Unlock()
	e.once.Do(func() { e.ctx = build() })
	return e.ctx, false
}

// Contains reports whether key's context is still resident, without
// touching recency or the hit/miss counters. The accumulator pool uses it
// as a liveness probe: worker sets are only parked for contexts the cache
// can still hand out.
func (c *MineContextCache) Contains(key MineCtxKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.contains(key)
}

// Discard drops key's entry if present (counted as an eviction). Mine jobs
// call it when a snapshot swap raced their build: the swap's Purge may
// have run before the entry was inserted, and a dead-generation context
// would otherwise pin the retired snapshot's fragments until LRU pressure.
func (c *MineContextCache) Discard(key MineCtxKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.remove(key)
}

// Purge drops every entry (snapshot swap) and returns how many were
// dropped.
func (c *MineContextCache) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.purge()
}

// Shrink evicts the least-recently-used half of the cache and returns how
// many contexts were dropped. Called under the hard memory watermark;
// contexts are the server's largest cached objects, so halving here is the
// biggest single lever the degradation ladder has. Jobs already holding an
// evicted context finish on it (contexts are immutable).
func (c *MineContextCache) Shrink() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.shrink((c.lru.ll.Len() + 1) / 2)
}

// Stats returns current counters for /stats.
func (c *MineContextCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.stats()
}
