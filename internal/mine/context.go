package mine

import (
	"fmt"
	"slices"
	"sync"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/mine/wire"
	"gpar/internal/partition"
)

// This file implements the reusable mining preamble. Every DMine run over
// the same graph with the same x-label and fragmentation parameters repeats
// the same expensive prefix — collect the candidate centers, partition the
// graph into d-neighborhood-preserving fragments, Freeze() each fragment
// into CSR form — before any predicate-specific work happens. Context
// captures that prefix once; DMineCtx runs on top of it, and Shared extends
// the reuse across the predicates of one DMineMulti job (the factorised-
// engine move of sharing common substructure across queries).

// Context is the immutable, predicate-independent preamble of a DMine run:
// the candidate centers of one x-label and the partitioned, frozen
// fragments covering their d-neighborhoods. A Context is read-only after
// NewContext returns and is safe to share between any number of concurrent
// DMineCtx runs — the serving subsystem caches Contexts per snapshot
// generation and hands one to every mine job with matching (xLabel, d, n).
type Context struct {
	g      *graph.Graph
	xLabel graph.Label
	d, n   int
	cands  []graph.NodeID
	frags  []*partition.Fragment

	// wireOnce guards the lazily-built wire encodings below: distributed
	// jobs (and their retries) over one context encode and hash each
	// fragment exactly once.
	wireOnce   sync.Once
	wireFrags  [][]byte
	wireHashes [][]byte
}

// WireFragment returns fragment i's canonical binary encoding and its
// content hash (wire.HashFragment over those bytes). Both are computed once
// per context and cached, so repeat and retried distributed jobs skip the
// re-encode, and the hash keys the workers' fragment caches stably.
func (c *Context) WireFragment(i int) (data, hash []byte) {
	c.wireOnce.Do(func() {
		c.wireFrags = make([][]byte, len(c.frags))
		c.wireHashes = make([][]byte, len(c.frags))
		for j, f := range c.frags {
			b := f.AppendBinary(nil)
			c.wireFrags[j] = b
			c.wireHashes[j] = wire.HashFragment(b)
		}
	})
	return c.wireFrags[i], c.wireHashes[i]
}

// NewContext builds the mining preamble for x-label candidates on g with
// opts' fragmentation parameters (only N and D are read; both are defaulted
// first, so pass the same Options the subsequent DMineCtx calls will use).
// The graph is frozen — all later access is read-only — and so is every
// fragment.
func NewContext(g *graph.Graph, xLabel graph.Label, opts Options) *Context {
	opts = opts.Defaults()
	g.Freeze()
	cands := g.NodesWithLabel(xLabel)
	frags := partition.Partition(g, cands, opts.N, opts.D)
	for _, f := range frags {
		f.G.Freeze()
	}
	return &Context{g: g, xLabel: xLabel, d: opts.D, n: opts.N, cands: cands, frags: frags}
}

// Graph returns the (frozen) data graph the context was built over.
func (c *Context) Graph() *graph.Graph { return c.g }

// XLabel returns the candidate x-label the context was built for.
func (c *Context) XLabel() graph.Label { return c.xLabel }

// D returns the partition radius the fragments preserve.
func (c *Context) D() int { return c.d }

// N returns the fragment (worker) count.
func (c *Context) N() int { return c.n }

// NumCandidates reports how many candidate centers the context covers.
func (c *Context) NumCandidates() int { return len(c.cands) }

// check verifies that the context's preamble matches the run parameters;
// a mismatched context would silently mine with the wrong radius or
// fragment layout, so this is a hard programming error.
func (c *Context) check(pred core.Predicate, opts Options) error {
	if pred.XLabel != c.xLabel {
		return fmt.Errorf("mine: context built for x-label %d, predicate has %d", c.xLabel, pred.XLabel)
	}
	if opts.D != c.d || opts.N != c.n {
		return fmt.Errorf("mine: context built for (d=%d, n=%d), options want (d=%d, n=%d)",
			c.d, c.n, opts.D, opts.N)
	}
	return nil
}

// DMineCtx is DMine running on a prebuilt Context: identical results (the
// differential tests pin byte-identity), but the partition + freeze
// preamble is skipped. It errors if the context was built for a different
// x-label or different (d, n) than pred/opts ask for, or — as a typed
// *CanceledError — when a set Options.Ctx cancels the run.
func DMineCtx(ctx *Context, pred core.Predicate, opts Options) (*Result, error) {
	opts = opts.Defaults()
	if err := ctx.check(pred, opts); err != nil {
		return nil, err
	}
	m := newMiner(ctx, pred, opts, nil)
	return m.runE()
}

// Shared is the cross-predicate accumulator of DMineMulti: everything that
// is a pure function of the graph and the fragment layout — the worker
// goroutine states with their memoized extendability probes (distCache),
// owned-center sets, epoch-stamped discovery scratch, extension intern
// tables and round arenas, the pre-sorted seed frontiers, and the
// bisimulation-bucket interner — survives from one predicate's run to the
// next instead of being rebuilt per predicate. The serving layer also pools
// Shared values across mine jobs, so a steady stream of jobs over one
// snapshot reuses the same grown arenas round after round.
//
// Sharing is determinism-safe: every retained structure is either a memo
// of a pure function (distCache) or an interning table whose concrete IDs
// never influence results (bucket IDs only group equal summaries;
// extension-overflow codes only key accumulators that are re-sorted by the
// extension's total order), and the arenas are reset at their phase
// boundaries. The differential tests pin byte-identity against fresh runs.
//
// A Shared belongs to one mining job at a time: unlike Context it is
// mutable and must not be used by concurrent runs. Concurrent jobs share
// an immutable Context and bring their own Shared (or none).
type Shared struct {
	ctx     *Context
	workers []*worker
	seeds   [][]graph.NodeID // per-worker owned centers, sorted once: every run's seed frontier
	buckets bucketInterner
}

// NewShared returns an empty accumulator over ctx.
func NewShared(ctx *Context) *Shared {
	return &Shared{ctx: ctx}
}

// Context returns the context the accumulator mines over.
func (sh *Shared) Context() *Context { return sh.ctx }

// DMine mines pred reusing the accumulator's context and every run-to-run
// survivable structure. Results are byte-identical to DMine(g, pred, opts).
// Errors are a context/options mismatch or, for a set Options.Ctx, the
// typed *CanceledError; a canceled accumulator is reusable — the next run
// resets every per-run structure, byte-identically to a fresh one.
func (sh *Shared) DMine(pred core.Predicate, opts Options) (*Result, error) {
	opts = opts.Defaults()
	if err := sh.ctx.check(pred, opts); err != nil {
		return nil, err
	}
	m := newMiner(sh.ctx, pred, opts, sh)
	return m.runE()
}

// attachWorkers returns the per-fragment workers, creating them on first
// use and resetting per-run state on every call.
func (sh *Shared) attachWorkers() []*worker {
	if sh.workers == nil {
		sh.workers = make([]*worker, len(sh.ctx.frags))
		sh.seeds = make([][]graph.NodeID, len(sh.ctx.frags))
		for i, f := range sh.ctx.frags {
			sh.workers[i] = &worker{
				id:         i,
				frag:       f,
				g:          sh.ctx.g,
				centersFor: make(map[ruleID][]graph.NodeID),
			}
			seed := append([]graph.NodeID(nil), f.Centers...)
			slices.Sort(seed)
			sh.seeds[i] = seed
		}
	}
	for _, w := range sh.workers {
		w.resetRun()
	}
	return sh.workers
}

// seed returns worker i's seed frontier: all owned centers, pre-sorted.
// localMine sorts frontiers in place before use, so handing the shared
// slice out (instead of a fresh copy per predicate) is safe — it is only
// ever re-sorted, never appended to or shrunk.
func (sh *Shared) seed(i int) []graph.NodeID { return sh.seeds[i] }

// resetRun clears a worker's per-predicate state. Graph-dependent
// memoization — distCache, centerSet, the discovery scratch and the
// extension intern table — survives: it depends only on the fragment
// layout, which the shared Context fixes.
func (w *worker) resetRun() {
	w.npq, w.npqbar = 0, 0
	w.ops = 0
	clear(w.centersFor)
}
