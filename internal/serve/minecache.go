package serve

import (
	"sync"

	"gpar/internal/graph"
	"gpar/internal/mine"
)

// MineCtxKey identifies one reusable mining layout: the snapshot
// generation (a proxy for graph identity — every swap bumps it, so stale
// contexts can never be served), the candidate x-label, the worker count n
// and the wire-fragment radius d. Two mine jobs with equal keys mine the
// same chunks of the same graph and, on a fleet, ship the same fragments.
type MineCtxKey struct {
	Gen    uint64
	XLabel graph.Label
	D, N   int
}

// mineCtxEntry is one cached (or in-flight) context build. The sync.Once
// makes GetOrBuild single-flight per key: a job arriving while another job
// is still building the same key blocks on the Once and shares the result.
type mineCtxEntry struct {
	once sync.Once
	ctx  *mine.Context
}

// MineContextCache is the bounded LRU of mine.Contexts. An in-process job's
// context is the snapshot's own candidate index — one allocation, so a hit
// saves it about 180 ns. What a hit is worth is a fleet job's: repeated fleet
// jobs ship the wire fragments the context partitioned, encoded and hashed
// once (about n serialized copies of the graph), so a hit saves partition +
// encode + hash. A snapshot swap purges the cache (and the generation in the
// key makes any racing stale entry unreachable anyway).
type MineContextCache struct {
	mu  sync.Mutex
	lru *lru[MineCtxKey, *mineCtxEntry]
}

// mineCacheCap is how many mine contexts (with, for fleet jobs, their
// encoded wire fragments) a server keeps across mine jobs.
const mineCacheCap = 4

// NewMineContextCache returns a cache bounded to capacity contexts
// (minimum 1).
func NewMineContextCache(capacity int) *MineContextCache {
	return &MineContextCache{lru: newLRU[MineCtxKey, *mineCtxEntry](capacity)}
}

// GetOrBuild returns the context for key, building it with build on a miss.
// hit reports whether an existing entry was reused — including the case
// where this call joined an in-flight build started by a concurrent job.
// Eviction drops the cache's reference only; jobs already holding an evicted
// context finish on it (contexts are immutable).
func (c *MineContextCache) GetOrBuild(key MineCtxKey, build func() *mine.Context) (ctx *mine.Context, hit bool) {
	c.mu.Lock()
	e, hit := c.lru.get(key)
	if !hit {
		e = &mineCtxEntry{}
		c.lru.put(key, e)
	}
	c.mu.Unlock()
	// On a hit whose builder is still running this blocks until the context
	// is ready; build only runs here for a hit in the pathological case
	// where the inserting goroutine has not reached its own Do yet.
	e.once.Do(func() { e.ctx = build() })
	return e.ctx, hit
}

// Discard drops key's entry if present (counted as an eviction). Mine jobs
// call it when a snapshot swap raced their build: the swap's Purge may
// have run before the entry was inserted, and a dead-generation context
// would otherwise pin the retired snapshot's graph until LRU pressure.
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
// many contexts were dropped. Called under the hard memory watermark: an
// evicted context takes any encoded wire fragments with it. Jobs already
// holding an evicted context finish on it.
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
