package mine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/partition"
	"gpar/internal/pattern"
)

// This file is what one DMine run shares with the next over the same graph:
// Context, the immutable layout every run with the same (x-label, d, n)
// mines on, and its memo of extension discovery.

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
// every mine job with matching (xLabel, d, n) — and they share its
// discovery memo, whatever their predicates.
type Context struct {
	g      *graph.Graph
	xLabel graph.Label
	d, n   int // wire-fragment radius, worker count
	// cands is g's own label index entry: ID-sorted, and never written.
	cands []graph.NodeID
	disc  atomic.Pointer[discMemo] // built on first use, shared by Rebind

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

// Rebind returns c's layout on g, a copy of c's graph, sharing its memo.
func (c *Context) Rebind(g *graph.Graph) *Context {
	r := NewContext(g, c.xLabel, Options{D: c.d, N: c.n})
	r.disc.Store(c.memo())
	return r
}

// DiscoveryStats reports the parents, IDs and hits of c's discovery memo.
func (c *Context) DiscoveryStats() (parents, ids, hits int64) {
	d := c.memo()
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.parents, d.ids, d.hits
}

// memo returns c's discovery memo, building it on first use.
func (c *Context) memo() *discMemo {
	if c.disc.Load() == nil {
		c.disc.CompareAndSwap(nil, &discMemo{limit: 16 * int64(c.g.NumEdges()), entries: map[uint64]*discEntry{}})
	}
	return c.disc.Load()
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

// discMemo remembers extension discovery, which reads no predicate, keyed
// by worker index, EmbedCap, the parent's exact form (an Extension names
// pattern nodes by number) and the whole frontier (under EmbedCap one Q
// can reach a worker with other centres). The first entry of a hash stays,
// within 16 IDs per graph edge; the zero memo stores nothing.
type discMemo struct {
	mu                        sync.Mutex
	limit, ids, parents, hits int64 // limit bounds ids, the IDs entries hold
	entries                   map[uint64]*discEntry
}

// discEntry is one discovery: its key, its extensions in Extension.Compare
// order (key and centres are views into one flat slice), and the ops and
// capped counts a hit replays, so a Result is the same hit or miss.
type discEntry struct {
	key         []graph.NodeID
	exts        []*extAcc
	ops, capped int64
}

// discKey writes w's key for q and frontier to w.key, and returns its hash.
func (w *worker) discKey(q *pattern.Pattern, embedCap int, frontier []graph.NodeID) uint64 {
	id := func(v int) graph.NodeID { return graph.NodeID(v) }
	dst := append(w.key[:0], id(w.slot), id(embedCap), id(q.NumNodes()), id(q.NumEdges()), id(q.X), id(q.Y))
	for u := range q.NumNodes() {
		dst = append(dst, id(int(q.Label(u))), id(q.Mult(u)))
	}
	for _, e := range q.Edges() {
		dst = append(dst, id(e.From), id(e.To), id(int(e.Label)))
	}
	w.key = append(dst, frontier...)
	h := uint64(14695981039346656037)
	for _, v := range w.key {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// lookup returns the entry of key, hashed h, or nil.
func (d *discMemo) lookup(key []graph.NodeID, h uint64) *discEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.entries[h]; e != nil && slices.Equal(e.key, key) {
		d.hits++
		return e
	}
	return nil
}

// store keeps a copy of accs as key's entry if h is free and it fits.
func (d *discMemo) store(key []graph.NodeID, h uint64, accs []*extAcc, ops, capped int64) {
	n := len(key)
	for _, acc := range accs {
		n += len(acc.centers)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.entries[h] != nil || d.ids+int64(n) > d.limit {
		return
	}
	flat, vals := append(make([]graph.NodeID, 0, n), key...), make([]extAcc, len(accs))
	e := &discEntry{key: slices.Clip(flat), exts: make([]*extAcc, len(accs)), ops: ops, capped: capped}
	for i, acc := range accs {
		flat = append(flat, acc.centers...)
		vals[i] = extAcc{ext: acc.ext, centers: slices.Clip(flat[len(flat)-len(acc.centers):])}
		e.exts[i] = &vals[i]
	}
	d.entries[h] = e
	d.ids, d.parents = d.ids+int64(n), d.parents+1
}
