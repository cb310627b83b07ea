package mine

import (
	"fmt"
	"sync"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/partition"
)

// This file is what one DMine run shares with the next over the same graph:
// Context, the immutable layout every run with the same (x-label, d, n)
// mines on.

// Context is the predicate-independent layout of a DMine run: the graph,
// the candidate centers of one x-label, and the worker count that cuts them
// into chunks. In-process workers all mine the one graph, each owning a
// contiguous chunk of the ID-sorted candidate list, so building a Context
// costs O(1). The d-neighbourhood fragments of Section 4.2 exist only for
// remote workers, which have no graph: they are partitioned and encoded on a
// fleet job's first use.
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

	wireOnce sync.Once
	// wireFrags holds each d-neighbourhood fragment's encoding; the fragment
	// graphs themselves are dropped once encoded.
	wireFrags [][]byte
}

// WireFragment returns fragment i's canonical binary encoding, as a remote
// worker receives it. The partition runs once per context, on the first
// call, so repeat and retried distributed jobs skip it and the re-encode.
func (c *Context) WireFragment(i int) []byte {
	c.wireOnce.Do(func() {
		frags := partition.Partition(c.g, c.cands, c.n, c.d)
		c.wireFrags = make([][]byte, len(frags))
		for j, f := range frags {
			c.wireFrags[j] = f.AppendBinary(nil)
		}
	})
	return c.wireFrags[i]
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
	return newMiner(ctx, pred, opts).runE()
}
