package graph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node within one Graph. IDs are dense: 0..NumNodes()-1.
type NodeID int32

// Edge is one directed labeled edge as seen from one endpoint's adjacency
// list: the other endpoint plus the edge label.
type Edge struct {
	To    NodeID
	Label Label
}

// Graph is a directed multigraph with labeled nodes and labeled edges.
// Multiple edges between the same pair of nodes are allowed as long as their
// labels differ; AddEdge deduplicates exact (from, to, label) triples.
//
// Lifecycle: a graph is either built edge by edge (AddNode*/AddEdge*;
// Label, Out, In, Degree, WriteTo and Clone read it meanwhile, in insertion
// order) and frozen once — by Freeze or by the first indexed read (HasEdge,
// OutRangeL, InRangeL, NodesWithLabel), which sorts every adjacency list by
// (Label, To) and hands it to FromCSR — or comes frozen from FromCSR
// directly, as decoded snapshots, fragments, induced subgraphs and
// compacted copies do. From then on it is only derived from: ApplyDelta
// and CompactCopy return new graphs, Clone returns an unfrozen copy to
// build on. Adding to a frozen graph panics.
//
// Concurrency contract: building is single-goroutine, and so is the freeze
// itself. Freeze the graph before sharing it: after Freeze returns, every
// read path — including further Freeze calls, which are then cheap atomic
// no-ops — is safe from any number of goroutines, for good.
type Graph struct {
	syms   *Symbols
	labels []Label  // labels[v] is the node label of v
	out    [][]Edge // out[v] lists edges v -> w; frozen: views into csr.outE; overlaid: the base's, read through Out
	in     [][]Edge // in[v] lists edges w -> v as {To: w}; frozen: views into csr.inE; overlaid: the base's, read through In
	numE   int

	// frozen publishes csr: building it happens-before frozen.Store(true),
	// so any goroutine observing true may read csr without locks.
	frozen atomic.Bool
	csr    *csrIndex

	// ov, when non-nil on a frozen graph, marks this graph as a delta
	// overlay over csr (see delta.go): csr and the out/in headers are shared
	// with the base graph and stale for the overlay's bypassed nodes, which
	// every read path routes around. Immutable once set, like csr.
	ov *overlay
}

// New returns an empty graph using the given symbol table. If syms is nil a
// fresh table is created.
func New(syms *Symbols) *Graph {
	if syms == nil {
		syms = NewSymbols()
	}
	return &Graph{syms: syms}
}

// Symbols returns the symbol table shared by this graph.
func (g *Graph) Symbols() *Symbols { return g.syms }

// NumNodes reports |V|.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges reports |E|.
func (g *Graph) NumEdges() int { return g.numE }

// Size reports |G| = |V| + |E| as defined in Section 2.1 of the paper.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// AddNode adds a node labeled name and returns its ID.
func (g *Graph) AddNode(name string) NodeID {
	return g.AddNodeL(g.syms.Intern(name))
}

// AddNodeL adds a node with an already-interned label.
func (g *Graph) AddNodeL(l Label) NodeID {
	g.mustBuild()
	v := NodeID(len(g.labels))
	g.labels = append(g.labels, l)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return v
}

// mustBuild panics once the build phase is over.
func (g *Graph) mustBuild() {
	if g.frozen.Load() {
		panic("graph: AddNode/AddEdge on a frozen graph; derive with ApplyDelta, or build on a Clone")
	}
}

// AddEdge adds edge from -> to labeled name. It returns false if the exact
// edge already exists (multigraph on labels, simple graph per label).
func (g *Graph) AddEdge(from, to NodeID, name string) bool {
	return g.AddEdgeL(from, to, g.syms.Intern(name))
}

// AddEdgeL adds an edge with an already-interned label.
func (g *Graph) AddEdgeL(from, to NodeID, l Label) bool {
	g.mustBuild()
	for _, e := range g.out[from] {
		if e.To == to && e.Label == l {
			return false
		}
	}
	g.out[from] = append(g.out[from], Edge{To: to, Label: l})
	g.in[to] = append(g.in[to], Edge{To: from, Label: l})
	g.numE++
	return true
}

// searchEdge binary-searches a (Label, To)-sorted adjacency list.
func searchEdge(adj []Edge, to NodeID, l Label) bool {
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		e := adj[mid]
		if e.Label < l || (e.Label == l && e.To < to) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo].Label == l && adj[lo].To == to
}

// Freeze ends the build phase: it compiles the graph into its flat CSR
// representation — contiguous per-direction edge arenas sorted by
// (Label, To) within each node, a per-node (direction, edge label) range
// index, and a flat node-label candidate index — and re-points Out/In at
// the arenas. It is one-way.
//
// Freeze is idempotent and, once the graph is frozen, safe to call
// concurrently (it reduces to an atomic load) — every indexed read calls it
// unconditionally. Freezing an *unfrozen* graph concurrently with any other
// access is a data race: freeze before sharing.
func (g *Graph) Freeze() {
	if !g.frozen.Load() {
		g.freeze()
	}
}

// freeze is Freeze past its check, apart so that the check inlines into
// every indexed read. It takes the adjacency of FromCSR's graph, so every
// reader of Out/In iterates cache-contiguous memory.
func (g *Graph) freeze() {
	f := g.frozenCopy(g.labels)
	g.out, g.in, g.csr = f.out, f.in, f.csr
	g.frozen.Store(true)
}

// frozenCopy lays g's out-adjacency end to end, each node's run sorted into
// (Label, To) order unless g is frozen and so sorted already, and builds
// the frozen graph of it with the given node labels.
func (g *Graph) frozenCopy(labels []Label) *Graph {
	outOff := make([]int32, len(g.labels)+1)
	out := make([]Edge, 0, g.numE)
	sorted := g.frozen.Load()
	for v := range g.labels {
		out = append(out, g.Out(NodeID(v))...)
		if !sorted {
			slices.SortFunc(out[outOff[v]:], cmpEdge)
		}
		outOff[v+1] = int32(len(out))
	}
	return mustFromCSR(g.syms, labels, outOff, out)
}

// mustFromCSR is FromCSR over adjacency this package built: AddNodeL and
// AddEdgeL take interned labels and deduplicate, and frozen runs are
// sorted, so an error here is a caller's bug.
func mustFromCSR(syms *Symbols, labels []Label, outOff []int32, out []Edge) *Graph {
	g, err := FromCSR(syms, labels, outOff, out)
	if err != nil {
		panic(err)
	}
	return g
}

// HasEdge reports whether edge from -> to with label l exists, by binary
// search on from's (Label, To)-sorted adjacency.
func (g *Graph) HasEdge(from, to NodeID, l Label) bool {
	g.Freeze()
	return searchEdge(g.Out(from), to, l)
}

// OutRangeL returns v's outgoing edges labeled l: a label-contiguous
// subslice of the CSR arena, found by binary search over v's distinct
// labels with no allocation. The caller must not mutate the result.
func (g *Graph) OutRangeL(v NodeID, l Label) []Edge {
	g.Freeze()
	if ov := g.ov; ov != nil && ov.bypass[v] {
		return labelRun(ov.out[v], l)
	}
	c := g.csr
	return rangeL(c.outE, c.outLab, c.outLabOff, c.outLabStart, v, l)
}

// InRangeL is OutRangeL for incoming edges: each Edge's To field is the
// source node of an edge To -> v labeled l.
func (g *Graph) InRangeL(v NodeID, l Label) []Edge {
	g.Freeze()
	if ov := g.ov; ov != nil && ov.bypass[v] {
		return labelRun(ov.in[v], l)
	}
	c := g.csr
	return rangeL(c.inE, c.inLab, c.inLabOff, c.inLabStart, v, l)
}

// Label returns the node label of v.
func (g *Graph) Label(v NodeID) Label { return g.labels[v] }

// LabelName returns the label string of v.
func (g *Graph) LabelName(v NodeID) string { return g.syms.Name(g.labels[v]) }

// Out returns the outgoing adjacency of v. The caller must not mutate it.
func (g *Graph) Out(v NodeID) []Edge {
	if ov := g.ov; ov != nil && ov.bypass[v] {
		return ov.out[v]
	}
	return g.out[v]
}

// In returns the incoming adjacency of v ({To: source}). Read-only.
func (g *Graph) In(v NodeID) []Edge {
	if ov := g.ov; ov != nil && ov.bypass[v] {
		return ov.in[v]
	}
	return g.in[v]
}

// Degree reports the total (in+out) degree of v.
func (g *Graph) Degree(v NodeID) int {
	if ov := g.ov; ov != nil && ov.bypass[v] {
		return len(ov.out[v]) + len(ov.in[v])
	}
	return len(g.out[v]) + len(g.in[v])
}

// NodesWithLabel returns all nodes labeled l, in ID order: a subslice of
// the precomputed candidate index. The caller must not mutate the result.
func (g *Graph) NodesWithLabel(l Label) []NodeID {
	g.Freeze()
	if ov := g.ov; ov != nil {
		if nodes, ok := ov.nodesByLabel[l]; ok {
			return nodes
		}
	}
	c := g.csr
	if l < 0 || int(l)+1 >= len(c.labelOff) {
		return nil
	}
	return c.nodesByLabel[c.labelOff[l]:c.labelOff[l+1]]
}

// bfsScratch is pooled epoch-stamped BFS state: bumping the epoch clears
// the visited set in O(1), so a walk allocates nothing in steady state.
// Delta repair, sketches and fragment partitioning walk once per touched
// node or candidate.
type bfsScratch struct {
	stamp          []uint32
	epoch          uint32
	frontier, next []NodeID
}

var bfsPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// acquireBFS returns scratch sized for g with a fresh epoch.
func acquireBFS(n int) *bfsScratch {
	s := bfsPool.Get().(*bfsScratch)
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	s.frontier = s.frontier[:0]
	s.next = s.next[:0]
	return s
}

// Walk is the one traversal of the undirected neighbourhood Nr(v) (Section
// 2.1, notation (3)): it calls visit for v at depth 0 and then for every
// other node within undirected radius r exactly once, in BFS order (out-
// then in-adjacency per frontier node) with its hop distance. It stops as
// soon as visit returns false and reports whether it ran to the end; for
// r < 0 it visits nothing. d-neighbourhood fragments, k-hop sketches and
// the label distances of delta repair are all walks.
func (g *Graph) Walk(v NodeID, r int, visit func(w NodeID, depth int) bool) bool {
	if r < 0 {
		return true
	}
	if !visit(v, 0) {
		return false
	}
	if r == 0 {
		return true
	}
	s := acquireBFS(g.NumNodes())
	defer bfsPool.Put(s)
	s.stamp[v] = s.epoch
	s.frontier = append(s.frontier, v)
	for depth := 1; depth <= r && len(s.frontier) > 0; depth++ {
		s.next = s.next[:0]
		for _, u := range s.frontier {
			for _, adj := range [2][]Edge{g.Out(u), g.In(u)} {
				for _, e := range adj {
					if s.stamp[e.To] == s.epoch {
						continue
					}
					s.stamp[e.To] = s.epoch
					if !visit(e.To, depth) {
						return false
					}
					s.next = append(s.next, e.To)
				}
			}
		}
		s.frontier, s.next = s.next, s.frontier
	}
	return true
}

// AppendNeighborhood appends Nr(v), v included, to dst in Walk's order.
// Callers that compute one neighborhood per candidate (the partitioner of
// distributed mining does) recycle one buffer through dst.
func (g *Graph) AppendNeighborhood(dst []NodeID, v NodeID, r int) []NodeID {
	g.Walk(v, r, func(w NodeID, _ int) bool { dst = append(dst, w); return true })
	return dst
}

// InducedSubgraph returns the subgraph induced by nodes (Section 2.1): the
// nodes plus every edge of g whose endpoints are both in nodes, frozen. It
// also returns toLocal mapping original IDs to IDs in the new graph, and
// toGlobal for the reverse direction. The new graph shares g's symbol table.
func (g *Graph) InducedSubgraph(nodes []NodeID) (sub *Graph, toLocal map[NodeID]NodeID, toGlobal []NodeID) {
	toLocal = make(map[NodeID]NodeID, len(nodes))
	toGlobal = make([]NodeID, 0, len(nodes))
	labels := make([]Label, 0, len(nodes))
	for _, v := range nodes {
		if _, dup := toLocal[v]; dup {
			continue
		}
		toLocal[v] = NodeID(len(toGlobal))
		toGlobal = append(toGlobal, v)
		labels = append(labels, g.labels[v])
	}
	// Local IDs need not keep the global order, so each run is re-sorted.
	outOff := make([]int32, len(toGlobal)+1)
	var out []Edge
	for lv, v := range toGlobal {
		for _, e := range g.Out(v) {
			if lw, ok := toLocal[e.To]; ok {
				out = append(out, Edge{To: lw, Label: e.Label})
			}
		}
		slices.SortFunc(out[outOff[lv]:], cmpEdge)
		outOff[lv+1] = int32(len(out))
	}
	return mustFromCSR(g.syms, labels, outOff, out), toLocal, toGlobal
}

// Clone returns an unfrozen deep copy sharing the symbol table: a new build
// phase, whatever phase g is in, with g's adjacency order as its own.
func (g *Graph) Clone() *Graph {
	c := New(g.syms)
	c.labels = append([]Label(nil), g.labels...)
	c.out = make([][]Edge, len(g.labels))
	c.in = make([][]Edge, len(g.labels))
	for v := range c.out {
		c.out[v] = append([]Edge(nil), g.Out(NodeID(v))...)
		c.in[v] = append([]Edge(nil), g.In(NodeID(v))...)
	}
	c.numE = g.numE
	return c
}

// String implements fmt.Stringer.
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(|V|=%d, |E|=%d)", g.NumNodes(), g.NumEdges())
}
