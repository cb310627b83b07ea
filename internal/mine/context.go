package mine

import (
	"fmt"
	"sync"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/mine/wire"
	"gpar/internal/partition"
)

// This file is what one DMine run shares with the next over the same graph:
// Context, the immutable layout every run with the same (x-label, d, n)
// mines on, and Shared, the mutable worker scratch one job carries from
// predicate to predicate.

// Context is the predicate-independent layout of a DMine run: the graph,
// the candidate centers of one x-label, and the worker count that cuts them
// into chunks. In-process workers all mine the one graph, each owning a
// contiguous chunk of the ID-sorted candidate list, so building a Context
// costs O(1). The d-neighbourhood fragments of Section 4.2 exist only for
// remote workers, which have no graph: they are partitioned, encoded and
// hashed on a fleet job's first use.
//
// A Context is safe to share between any number of concurrent runs — the
// serving subsystem caches Contexts per snapshot generation and hands one to
// every mine job with matching (xLabel, d, n).
type Context struct {
	g      *graph.Graph
	xLabel graph.Label
	d, n   int // wire-fragment radius, worker count
	// cands is g's own label index entry: ID-sorted, and never written.
	cands []graph.NodeID

	wireOnce  sync.Once
	wireFrags []wireFragment
}

// wireFragment is one d-neighbourhood fragment as a remote worker receives
// it. The fragment graph itself is dropped once encoded.
type wireFragment struct {
	data, hash []byte
	centers    []graph.NodeID // owned centers as global IDs, in the fragment's Centers order
}

// WireFragment returns fragment i's canonical binary encoding, its content
// hash (wire.HashFragment over those bytes) and its owned centers. The
// partition runs once per context, on the first call, so repeat and retried
// distributed jobs skip it and the re-encode, and the hash keys the workers'
// fragment caches stably.
func (c *Context) WireFragment(i int) (data, hash []byte, centers []graph.NodeID) {
	c.wireOnce.Do(func() {
		frags := partition.Partition(c.g, c.cands, c.n, c.d)
		c.wireFrags = make([]wireFragment, len(frags))
		for j, f := range frags {
			wf := &c.wireFrags[j]
			wf.data = f.AppendBinary(nil)
			wf.hash = wire.HashFragment(wf.data)
			wf.centers = make([]graph.NodeID, len(f.Centers))
			for k, lc := range f.Centers {
				wf.centers[k] = f.Global(lc)
			}
		}
	})
	wf := &c.wireFrags[i]
	return wf.data, wf.hash, wf.centers
}

// NewContext fixes the mining layout for x-label candidates on g with opts'
// N and D (both are defaulted first, so pass the same Options the
// subsequent DMineCtx calls will use). The graph is frozen — all later
// access is read-only — unless it already is, as a delta overlay is.
func NewContext(g *graph.Graph, xLabel graph.Label, opts Options) *Context {
	opts = opts.Defaults()
	g.Freeze()
	return &Context{g: g, xLabel: xLabel, d: opts.D, n: opts.N, cands: g.NodesWithLabel(xLabel)}
}

// fragment returns in-process worker i's view of the data: the whole graph,
// owning the i-th of n equal-count chunks of the candidate list.
func (c *Context) fragment(i int) *partition.Fragment {
	lo, hi := i*len(c.cands)/c.n, (i+1)*len(c.cands)/c.n
	return partition.Whole(c.g, c.cands[lo:hi])
}

// check verifies that the context matches the run parameters; a mismatched
// context would silently mine with the wrong worker count or ship fragments
// of the wrong radius, so this is a hard programming error.
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
// differential tests pin byte-identity). It errors if the context was built
// for a different x-label or different (d, n) than pred/opts ask for, or —
// as a typed *CanceledError — when a set Options.Ctx cancels the run.
func DMineCtx(ctx *Context, pred core.Predicate, opts Options) (*Result, error) {
	opts = opts.Defaults()
	if err := ctx.check(pred, opts); err != nil {
		return nil, err
	}
	m := newMiner(ctx, pred, opts, nil)
	return m.runE()
}

// Shared is the cross-predicate accumulator of DMineMulti: everything that
// is a pure function of the graph and the worker layout — the worker
// goroutine states with their memoized extendability probes (distCache),
// owned-center sets, epoch-stamped discovery scratch, extension intern
// tables and round arenas, and the bisimulation-bucket interner — survives
// from one predicate's run to the next instead of being rebuilt per
// predicate. The serving layer also pools Shared values across mine jobs,
// so a steady stream of jobs over one snapshot reuses the same grown arenas
// round after round.
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
	buckets bucketInterner
}

// NewShared returns an empty accumulator over ctx.
func NewShared(ctx *Context) *Shared {
	return &Shared{ctx: ctx}
}

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

// attachWorkers returns the accumulator's workers, creating them on first
// use and rebinding each to its own fragment on every call: the per-run
// state is cleared, the graph-dependent memoization survives (the shared
// Context fixes the graph and the chunks it depends on).
func (sh *Shared) attachWorkers() []*worker {
	if sh.workers == nil {
		sh.workers = make([]*worker, sh.ctx.n)
		for i := range sh.workers {
			sh.workers[i] = &worker{frag: sh.ctx.fragment(i)}
		}
	}
	for i, w := range sh.workers {
		w.bind(i, w.frag)
	}
	return sh.workers
}
