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

// mineCtxEntry is one cached (or in-flight) context build, plus the idle
// accumulators of jobs that mined on it. The sync.Once makes GetOrBuild
// single-flight per key: a job arriving while another job is still
// building the same key blocks on the Once and shares the result.
//
// parked holds mine.Shared accumulators — worker sets with their round
// arenas, memoized extendability probes and interning tables — between
// jobs. A Shared is exclusive to one running job and its workers are bound
// to its context's graph, so it lives and dies with the entry: eviction,
// Shrink, Purge and Discard drop the context and its accumulators together,
// and a job that outlives its entry parks onto garbage.
type mineCtxEntry struct {
	once   sync.Once
	ctx    *mine.Context
	parked []*mine.Shared // guarded by the cache's mu
}

// maxParked bounds the idle accumulators per context; beyond it, finished
// jobs simply drop theirs. Worker scratch scales with n × |V|, so a small
// bound keeps the steady state without letting a burst of concurrent jobs
// pin memory.
const maxParked = 2

// MineContextCache is the bounded LRU of mine.Contexts: repeated POST
// /v1/mine jobs over the same snapshot mine on accumulators already grown by
// the jobs before them, and repeated fleet jobs ship wire fragments the
// context partitioned, encoded and hashed once. An in-process job's context
// is the snapshot's own candidate index and costs nothing to build or keep;
// what an entry holds is its parked accumulators and, after a fleet job, the
// encoded fragments (about n serialized copies of the graph). A snapshot swap
// purges the cache (and the generation in the key makes any racing stale
// entry unreachable anyway).
type MineContextCache struct {
	mu  sync.Mutex
	lru *lru[MineCtxKey, *mineCtxEntry]

	gets   int64 // accumulators handed out
	reuses int64 // of those, parked ones
}

// mineCacheCap is how many mine contexts (parked worker scratch and, for
// fleet jobs, encoded wire fragments) a server keeps across mine jobs.
const mineCacheCap = 4

// NewMineContextCache returns a cache bounded to capacity contexts
// (minimum 1).
func NewMineContextCache(capacity int) *MineContextCache {
	return &MineContextCache{lru: newLRU[MineCtxKey, *mineCtxEntry](capacity)}
}

// GetOrBuild returns the entry for key, building its context with build on
// a miss. hit reports whether an existing entry was reused — including the
// case where this call joined an in-flight build started by a concurrent
// job. Eviction drops the cache's
// reference only; jobs already holding an evicted entry finish on it
// (contexts are immutable).
func (c *MineContextCache) GetOrBuild(key MineCtxKey, build func() *mine.Context) (e *mineCtxEntry, hit bool) {
	c.mu.Lock()
	e, hit = c.lru.get(key)
	if !hit {
		e = &mineCtxEntry{}
		c.lru.put(key, e)
	}
	c.mu.Unlock()
	// On a hit whose builder is still running this blocks until the context
	// is ready; build only runs here for a hit in the pathological case
	// where the inserting goroutine has not reached its own Do yet.
	e.once.Do(func() { e.ctx = build() })
	return e, hit
}

// acquire returns an accumulator over e's context for one job: a parked one
// when available, which skips rebuilding worker scratch and mines on arenas
// previous jobs grew.
func (c *MineContextCache) acquire(e *mineCtxEntry) *mine.Shared {
	c.mu.Lock()
	c.gets++
	if n := len(e.parked); n > 0 {
		sh := e.parked[n-1]
		e.parked = e.parked[:n-1]
		c.reuses++
		c.mu.Unlock()
		return sh
	}
	c.mu.Unlock()
	return mine.NewShared(e.ctx)
}

// park hands a job's accumulator back to the entry it was acquired from.
func (c *MineContextCache) park(e *mineCtxEntry, sh *mine.Shared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(e.parked) < maxParked {
		e.parked = append(e.parked, sh)
	}
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
// evicted context takes its parked accumulators and any encoded wire
// fragments with it. Jobs already holding an evicted entry finish on it.
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

// MinePoolStats is the /stats view of the parked accumulators: how many
// worker sets (with their arenas) resident contexts hold, how many
// acquisitions jobs made, and how many of those reused a parked set instead
// of building fresh scratch.
type MinePoolStats struct {
	Parked int   `json:"parked"`
	Gets   int64 `json:"gets"`
	Reuses int64 `json:"reuses"`
}

// PoolStats returns the accumulator counters for /stats.
func (c *MineContextCache) PoolStats() MinePoolStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := MinePoolStats{Gets: c.gets, Reuses: c.reuses}
	for el := c.lru.ll.Front(); el != nil; el = el.Next() {
		st.Parked += len(el.Value.(*lruEntry[MineCtxKey, *mineCtxEntry]).val.parked)
	}
	return st
}
