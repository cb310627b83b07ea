package match

import (
	"math/bits"
	"slices"
	"sync"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// Filter is the set-at-a-time half of the identify kernel: a bottom-up
// semi-join pass over a BFS spanning tree of the expanded pattern, rooted at
// x, narrows each pattern node u to a bitset S(u) that holds h(u) for every
// match h. Each node with a child smaller than its own label list pushes
// from the smallest such child and pulls the others. No edge between two
// same-label nodes is witnessed by a self-loop, which no match uses. A
// matcher bound to the filter by Restrict draws every narrowed node from
// its set and confirms what the tree cannot see (DESIGN.md, "One identify
// kernel"). When the pattern is Exact the pass is a full reducer, pulling
// from every child, and S(x) is the answer.
type Filter struct {
	g *graph.Graph
	p *pattern.Pattern // expanded

	// The tree: the children of order[i] are order[kids[i]:kids[i+1]], and
	// elab/down are the label and direction (parent to node) of the edge
	// above each node. sets[u] is u's narrowed bitset, indexed by pattern
	// node and empty while u is un-narrowed; keep is sets[x].
	order, kids []int
	elab        []graph.Label
	down        []bool
	sets        [][]uint64
	keep        []uint64
	exact       bool
}

var filterPool = sync.Pool{New: func() any { return new(Filter) }}

// NewFilter runs the pass for p (x set) over the frozen, possibly overlaid
// g and returns the pooled result. Release it when done.
func NewFilter(p *pattern.Pattern, g *graph.Graph) *Filter {
	f := filterPool.Get().(*Filter)
	f.g, f.p = g, p.Expand()
	f.buildTree()
	f.exact = f.isExact()
	f.narrow()
	return f
}

// Release returns the Filter to the pool. It must not be used afterwards,
// and every Matcher restricted to it must be released first: the pool
// reuses the sets they read.
func (f *Filter) Release() {
	f.g, f.p, f.keep = nil, nil, nil
	filterPool.Put(f)
}

// Restrict makes m reject v for pattern node u when the pass narrowed u and
// v ∉ S(u). m is bound to the filter's graph and pattern, or to an extension
// whose expansion keeps the pattern's as a numbering prefix (Rule.PRInto's
// Q plus y; y stays label-only). The filter must outlive m's binding.
func (f *Filter) Restrict(m *Matcher) { m.sets = f.sets }

// Keep reports whether x may map to v: false means no match does.
func (f *Filter) Keep(v graph.NodeID) bool { return inSet(f.keep, v) }

// inSet reports v ∈ s, where an empty s is un-narrowed and holds every node.
func inSet(s []uint64, v graph.NodeID) bool { return len(s) == 0 || s[v>>6]&(1<<(v&63)) != 0 }

// Narrowed reports whether the pass narrowed x; if not, Keep always holds.
// An exact pass always narrows x.
func (f *Filter) Narrowed() bool { return len(f.keep) > 0 }

// XSet returns S(x) as node-indexed words, (NumNodes+63)/64 of them, or
// nothing when x is un-narrowed. A narrowed S(x) holds x-labelled nodes
// only. The words are the filter's: read them before Release.
func (f *Filter) XSet() []uint64 { return f.keep }

// Kept returns how many x-labelled nodes Keep admits.
func (f *Filter) Kept() int { return f.size(f.p.X) }

// Exact reports whether Keep is HasMatchAt at every x-labelled node, so
// that no confirm is needed. It holds when the expansion is a tree and
// every two same-label nodes are adjacent: the pass then finds the
// homomorphisms that witness no same-label edge by a self-loop, and each
// of those is injective, since nodes with different labels never share an
// image and adjacent ones with the same label would need a self-loop.
func (f *Filter) Exact() bool { return f.exact }

// isExact decides Exact from the pattern alone. buildTree reaches every
// node of a connected pattern, and a connected one with |V|-1 edges is a
// tree, with no self-loop and no parallel edge; each same-label edge of it
// then joins a different same-label pair.
func (f *Filter) isExact() bool {
	n := f.p.NumNodes()
	if len(f.order) != n || f.p.NumEdges() != n-1 {
		return false
	}
	pairs := 0 // same-label pairs not yet seen joined
	for u := range n {
		for v := u + 1; v < n; v++ {
			if f.p.Label(u) == f.p.Label(v) {
				pairs++
			}
		}
	}
	for _, e := range f.p.Edges() {
		if f.p.Label(e.From) == f.p.Label(e.To) {
			pairs--
		}
	}
	return pairs == 0
}

func (f *Filter) buildTree() {
	n := f.p.NumNodes()
	f.elab, f.down, f.sets = grow(f.elab, n), grow(f.down, n), grow(f.sets, n)
	for u := range f.sets {
		f.sets[u] = f.sets[u][:0]
	}
	f.order, f.kids = append(f.order[:0], f.p.X), f.kids[:0]
	for i := 0; i < len(f.order); i++ {
		u := f.order[i]
		f.kids = append(f.kids, len(f.order))
		for _, e := range f.p.Edges() {
			c, down := e.To, e.From == u
			if !down {
				c = e.From
			}
			if (down || e.To == u) && !slices.Contains(f.order, c) {
				f.order = append(f.order, c)
				f.elab[c], f.down[c] = e.Label, down
			}
		}
	}
	f.kids = append(f.kids, len(f.order))
}

func (f *Filter) narrow() {
	for i := len(f.order) - 1; i >= 0; i-- {
		u, kids := f.order[i], f.order[f.kids[i]:f.kids[i+1]]
		lim := len(f.g.NodesWithLabel(f.p.Label(u)))
		src, srcSize := -1, lim
		for _, c := range kids {
			if sz := f.size(c); sz < srcSize {
				src, srcSize = c, sz
			}
		}
		if src < 0 && (!f.exact || len(kids) == 0 && u != f.p.X) {
			continue
		}
		set, lu := grow(f.sets[u], (f.g.NumNodes()+63)/64), f.p.Label(u)
		clear(set)
		if src < 0 { // exact, with no selective child (or x alone): start from u's label list
			for _, v := range f.g.NodesWithLabel(lu) {
				set[v>>6] |= 1 << (v & 63)
			}
		} else {
			f.members(src, func(w graph.NodeID) {
				for _, e := range f.adj(w, src, false) {
					if e.To != w && f.g.Label(e.To) == lu {
						set[e.To>>6] |= 1 << (e.To & 63)
					}
				}
			})
		}
		f.sets[u] = set
		for _, c := range kids {
			if c == src || !f.exact && f.size(c) >= lim {
				continue
			}
			f.members(u, func(v graph.NodeID) {
				for _, e := range f.adj(v, c, true) {
					if e.To != v && f.has(c, e.To) {
						return
					}
				}
				set[v>>6] &^= 1 << (v & 63)
			})
		}
	}
	f.keep = f.sets[f.p.X]
}

// size is |S(c)|, the set the pass reads for c.
func (f *Filter) size(c int) int {
	if len(f.sets[c]) == 0 {
		return len(f.g.NodesWithLabel(f.p.Label(c)))
	}
	n := 0
	for _, word := range f.sets[c] {
		n += bits.OnesCount64(word)
	}
	return n
}

// has reports w ∈ S(c); a narrowed set holds only c-labelled nodes.
func (f *Filter) has(c int, w graph.NodeID) bool {
	return inSet(f.sets[c], w) && f.g.Label(w) == f.p.Label(c)
}

// adj returns v's edges along the tree edge above c, toward c or its parent.
func (f *Filter) adj(v graph.NodeID, c int, towardChild bool) []graph.Edge {
	if f.down[c] == towardChild {
		return f.g.OutRangeL(v, f.elab[c])
	}
	return f.g.InRangeL(v, f.elab[c])
}

// members calls fn on S(c); fn may clear its node (the loop copies words).
func (f *Filter) members(c int, fn func(graph.NodeID)) {
	if len(f.sets[c]) == 0 {
		for _, w := range f.g.NodesWithLabel(f.p.Label(c)) {
			fn(w)
		}
		return
	}
	for i, word := range f.sets[c] {
		for ; word != 0; word &= word - 1 {
			fn(graph.NodeID(i*64 + bits.TrailingZeros64(word)))
		}
	}
}
