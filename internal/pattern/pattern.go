// Package pattern implements graph pattern queries Q = (Vp, Ep, f, C) from
// Section 2.1 of "Association Rules with Graph Patterns" (PVLDB 2015):
// small labeled graphs with two designated nodes x and y, optional node
// multiplicities C(u) = k (the "3 French restaurants" succinct notation),
// connectivity and radius computations, subsumption, isomorphism and the
// edge extensions used by the mining algorithm.
package pattern

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gpar/internal/graph"
)

// NoNode marks an absent designated node (a pattern whose y has not been
// introduced yet during mining).
const NoNode = -1

// Edge is one directed pattern edge between node indexes.
type Edge struct {
	From, To int
	Label    graph.Label
}

// Pattern is a graph pattern query. Node indexes are dense 0..NumNodes()-1.
// X is the designated node x (required for GPAR use); Y is the designated
// node y or NoNode.
type Pattern struct {
	syms   *graph.Symbols
	labels []graph.Label
	mult   []int // C(u); values < 2 mean a single copy
	edges  []Edge
	X, Y   int
}

// New returns an empty pattern over the symbol table.
func New(syms *graph.Symbols) *Pattern {
	if syms == nil {
		syms = graph.NewSymbols()
	}
	return &Pattern{syms: syms, X: NoNode, Y: NoNode}
}

// Symbols returns the shared symbol table.
func (p *Pattern) Symbols() *graph.Symbols { return p.syms }

// AddNode appends a node labeled name and returns its index.
func (p *Pattern) AddNode(name string) int {
	return p.AddNodeL(p.syms.Intern(name))
}

// AddNodeL appends a node with an interned label.
func (p *Pattern) AddNodeL(l graph.Label) int {
	p.labels = append(p.labels, l)
	p.mult = append(p.mult, 1)
	return len(p.labels) - 1
}

// AddEdge appends the edge from -> to labeled name.
func (p *Pattern) AddEdge(from, to int, name string) {
	p.AddEdgeL(from, to, p.syms.Intern(name))
}

// AddEdgeL appends an edge with an interned label. Duplicate edges are
// ignored.
func (p *Pattern) AddEdgeL(from, to int, l graph.Label) {
	if p.HasEdge(from, to, l) {
		return
	}
	p.edges = append(p.edges, Edge{From: from, To: to, Label: l})
}

// HasEdge reports whether the exact edge exists.
func (p *Pattern) HasEdge(from, to int, l graph.Label) bool {
	for _, e := range p.edges {
		if e.From == from && e.To == to && e.Label == l {
			return true
		}
	}
	return false
}

// SetMult sets C(u) = k, the succinct "k copies" annotation.
func (p *Pattern) SetMult(u, k int) { p.mult[u] = k }

// Mult returns C(u) (at least 1).
func (p *Pattern) Mult(u int) int {
	if p.mult[u] < 1 {
		return 1
	}
	return p.mult[u]
}

// NumNodes reports |Vp| before multiplicity expansion.
func (p *Pattern) NumNodes() int { return len(p.labels) }

// NumEdges reports |Ep| before multiplicity expansion.
func (p *Pattern) NumEdges() int { return len(p.edges) }

// Size reports |Vp| + |Ep|.
func (p *Pattern) Size() int { return len(p.labels) + len(p.edges) }

// Label returns the search-condition label of node u.
func (p *Pattern) Label(u int) graph.Label { return p.labels[u] }

// LabelName returns the label string of node u.
func (p *Pattern) LabelName(u int) string { return p.syms.Name(p.labels[u]) }

// Edges returns the edge list. Read-only.
func (p *Pattern) Edges() []Edge { return p.edges }

// Clone returns a deep copy sharing the symbol table.
func (p *Pattern) Clone() *Pattern {
	return p.CloneInto(New(p.syms))
}

// CloneInto copies p into dst, reusing dst's storage, and returns dst. The
// mining loop materializes thousands of short-lived candidate patterns per
// round; building them into recycled per-worker scratch is what keeps that
// path off the allocator. dst must not alias p.
func (p *Pattern) CloneInto(dst *Pattern) *Pattern {
	dst.syms = p.syms
	dst.labels = append(dst.labels[:0], p.labels...)
	dst.mult = append(dst.mult[:0], p.mult...)
	dst.edges = append(dst.edges[:0], p.edges...)
	dst.X, dst.Y = p.X, p.Y
	return dst
}

// Expand materializes multiplicities: a node u with C(u) = k is replaced by
// k nodes with the same label and the same incident edges in the common
// neighborhood (Section 2.1). Designated nodes are never expanded. The
// result has all multiplicities equal to 1.
func (p *Pattern) Expand() *Pattern {
	needs := false
	for u := range p.labels {
		if p.Mult(u) > 1 && u != p.X && u != p.Y {
			needs = true
		}
	}
	if !needs {
		return p
	}
	out := New(p.syms)
	out.X, out.Y = p.X, p.Y
	// copies[u] lists the expanded indexes of original node u.
	copies := make([][]int, len(p.labels))
	for u, l := range p.labels {
		k := p.Mult(u)
		if u == p.X || u == p.Y {
			k = 1
		}
		for i := 0; i < k; i++ {
			copies[u] = append(copies[u], out.AddNodeL(l))
		}
	}
	for _, e := range p.edges {
		for _, f := range copies[e.From] {
			for _, t := range copies[e.To] {
				out.AddEdgeL(f, t, e.Label)
			}
		}
	}
	// Designated indexes may have moved.
	if p.X != NoNode {
		out.X = copies[p.X][0]
	}
	if p.Y != NoNode {
		out.Y = copies[p.Y][0]
	}
	return out
}

// DistancesFrom returns undirected hop distances from u; unreachable nodes
// get -1. Patterns are tiny, so instead of materializing an adjacency list
// it relaxes the edge list to a fixpoint (at most |Vp| passes): one
// allocation — the result — on a path the miner hits once per candidate.
func (p *Pattern) DistancesFrom(u int) []int {
	return p.DistancesInto(nil, u)
}

// DistancesInto is DistancesFrom writing into dst (grown only when its
// capacity is too small), for callers that probe radii per candidate and
// recycle the buffer.
func (p *Pattern) DistancesInto(dst []int, u int) []int {
	n := len(p.labels)
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dist := dst[:n]
	for i := range dist {
		dist[i] = -1
	}
	if u < 0 || u >= len(p.labels) {
		return dist
	}
	dist[u] = 0
	for changed := true; changed; {
		changed = false
		for _, e := range p.edges {
			df, dt := dist[e.From], dist[e.To]
			if df >= 0 && (dt < 0 || dt > df+1) {
				dist[e.To] = df + 1
				changed = true
			}
			if dt >= 0 && (df < 0 || df > dt+1) {
				dist[e.From] = dt + 1
				changed = true
			}
		}
	}
	return dist
}

// Connected reports whether the pattern is connected when treated as an
// undirected graph (Section 2.1, notation (2)). The empty pattern is
// considered connected.
func (p *Pattern) Connected() bool {
	if len(p.labels) == 0 {
		return true
	}
	dist := p.DistancesFrom(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// RadiusAt returns r(Q, x): the longest undirected distance from x to any
// node (Section 2.1, notation (1)). It returns -1 if some node is
// unreachable from x.
func (p *Pattern) RadiusAt(x int) int { return Radius(p.DistancesFrom(x)) }

// Radius reduces a DistancesFrom or DistancesInto result to the longest
// distance in it, or -1 if some node is unreachable.
func Radius(dist []int) int {
	r := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if d > r {
			r = d
		}
	}
	return r
}

// IsomorphicTo reports whether p and q are the same pattern up to node
// renaming, with designated nodes corresponding (x to x, y to y). Two GPARs
// whose patterns are isomorphic this way are "automorphic" in the
// terminology of algorithm DMine (Section 4.2) and denote the same rule.
func (p *Pattern) IsomorphicTo(q *Pattern) bool {
	pe, qe := p.Expand(), q.Expand()
	if pe.NumNodes() != qe.NumNodes() || pe.NumEdges() != qe.NumEdges() {
		return false
	}
	if (pe.X == NoNode) != (qe.X == NoNode) || (pe.Y == NoNode) != (qe.Y == NoNode) {
		return false
	}
	if !equalLabelMultiset(pe, qe) {
		return false
	}
	m := make([]int, pe.NumNodes())
	for i := range m {
		m[i] = NoNode
	}
	used := make([]bool, qe.NumNodes())
	if pe.X != NoNode {
		if pe.labels[pe.X] != qe.labels[qe.X] {
			return false
		}
		m[pe.X] = qe.X
		used[qe.X] = true
	}
	if pe.Y != NoNode && m[pe.Y] == NoNode {
		if used[qe.Y] || pe.labels[pe.Y] != qe.labels[qe.Y] {
			return false
		}
		m[pe.Y] = qe.Y
		used[qe.Y] = true
	}
	// Degrees are invariant across the search; computing them once here
	// (instead of at every recursion level) keeps the iso check — run per
	// candidate group per mining round — to two allocations.
	return isoBacktrack(pe, qe, degrees(pe), degrees(qe), m, used, 0)
}

func isoBacktrack(p, q *Pattern, deg, qdeg []int, m []int, used []bool, next int) bool {
	for next < len(m) && m[next] != NoNode {
		next++
	}
	if next == len(m) {
		// Bijection complete; both directions must have identical edges.
		if len(p.edges) != len(q.edges) {
			return false
		}
		for _, e := range p.edges {
			if !q.HasEdge(m[e.From], m[e.To], e.Label) {
				return false
			}
		}
		return true
	}
	for cand := 0; cand < q.NumNodes(); cand++ {
		if used[cand] || q.labels[cand] != p.labels[next] || deg[next] != qdeg[cand] {
			continue
		}
		m[next] = cand
		used[cand] = true
		ok := true
		for _, e := range p.edges {
			if m[e.From] != NoNode && m[e.To] != NoNode && !q.HasEdge(m[e.From], m[e.To], e.Label) {
				ok = false
				break
			}
		}
		if ok && isoBacktrack(p, q, deg, qdeg, m, used, next+1) {
			return true
		}
		m[next] = NoNode
		used[cand] = false
	}
	return false
}

func degrees(p *Pattern) []int {
	d := make([]int, p.NumNodes())
	for _, e := range p.edges {
		d[e.From]++
		d[e.To]++
	}
	return d
}

// equalLabelMultiset reports whether two patterns use exactly the same node
// labels with the same multiplicities (a cheap isomorphism precondition).
// Patterns are tiny, so quadratic matching without allocation beats a map.
func equalLabelMultiset(p, q *Pattern) bool {
	n := len(p.labels)
	if n != len(q.labels) {
		return false
	}
	var usedArr [32]bool
	used := usedArr[:]
	if n > len(used) {
		used = make([]bool, n)
	}
	for _, l := range p.labels {
		found := false
		for j, m := range q.labels {
			if !used[j] && m == l {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Signature returns a cheap isomorphism-invariant string: two isomorphic
// patterns always share a signature, two patterns with different signatures
// are never isomorphic, but non-isomorphic patterns may share one. It is
// gen.Rules' dedup key and the last key of fsm's result order; grouping by
// isomorphism class uses AppendCode.
func (p *Pattern) Signature() string {
	pe := p.Expand()
	buf := make([]byte, 0, 16+12*pe.NumNodes()+16*pe.NumEdges())
	num := func(prefix byte, vals ...int) {
		buf = append(buf, prefix)
		for i, v := range vals {
			if i > 0 {
				buf = append(buf, '.')
			}
			buf = strconv.AppendInt(buf, int64(v), 10)
		}
		buf = append(buf, ' ')
	}
	num('n', pe.NumNodes())
	num('e', pe.NumEdges())
	if pe.X != NoNode {
		num('x', int(pe.labels[pe.X]))
	}
	if pe.Y != NoNode {
		num('y', int(pe.labels[pe.Y]))
	}
	// Node descriptors: (label, outDeg, inDeg), sorted.
	type nd struct{ l, od, id int }
	nds := make([]nd, pe.NumNodes())
	for u := range nds {
		nds[u].l = int(pe.labels[u])
	}
	for _, e := range pe.edges {
		nds[e.From].od++
		nds[e.To].id++
	}
	sort.Slice(nds, func(i, j int) bool {
		if nds[i].l != nds[j].l {
			return nds[i].l < nds[j].l
		}
		if nds[i].od != nds[j].od {
			return nds[i].od < nds[j].od
		}
		return nds[i].id < nds[j].id
	})
	for _, n := range nds {
		num('v', n.l, n.od, n.id)
	}
	// Edge descriptors: (fromLabel, edgeLabel, toLabel), sorted.
	type ed struct{ f, l, t int }
	eds := make([]ed, 0, len(pe.edges))
	for _, e := range pe.edges {
		eds = append(eds, ed{int(pe.labels[e.From]), int(e.Label), int(pe.labels[e.To])})
	}
	sort.Slice(eds, func(i, j int) bool {
		if eds[i].f != eds[j].f {
			return eds[i].f < eds[j].f
		}
		if eds[i].l != eds[j].l {
			return eds[i].l < eds[j].l
		}
		return eds[i].t < eds[j].t
	})
	for _, e := range eds {
		num('E', e.f, e.l, e.t)
	}
	return string(buf)
}

// String renders the pattern for logs and the case-study output.
func (p *Pattern) String() string {
	var b strings.Builder
	b.WriteString("Pattern{")
	for u := range p.labels {
		if u > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%s", u, p.LabelName(u))
		if p.Mult(u) > 1 {
			fmt.Fprintf(&b, "^%d", p.Mult(u))
		}
		if u == p.X {
			b.WriteString("(x)")
		}
		if u == p.Y {
			b.WriteString("(y)")
		}
	}
	b.WriteString("; ")
	for i, e := range p.edges {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d-%s->%d", e.From, p.syms.Name(e.Label), e.To)
	}
	b.WriteString("}")
	return b.String()
}
