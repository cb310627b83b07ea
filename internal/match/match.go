// Package match implements subgraph isomorphism for graph patterns against
// labeled data graphs, in the semantics of Section 2.1 of "Association Rules
// with Graph Patterns" (PVLDB 2015): a match of pattern Q in graph G is an
// injective mapping h from Q's (expanded) nodes to nodes of G that preserves
// node labels and maps every pattern edge onto a data edge with the same
// label.
//
// Three modes are provided, mirroring the paper's three algorithms:
//
//   - Enumerate: full match enumeration, the behaviour of the disVF2
//     baseline (Section 6);
//   - HasMatchAt: anchored existence check with early termination, the key
//     optimization of algorithm Match (Section 5.2);
//   - guided search: candidate ordering by k-hop sketch scores, the second
//     optimization of algorithm Match.
//
// Filter answers set-at-a-time what HasMatchAt answers per anchor, as a
// sound superset for every pattern node and exactly at x for an Exact
// pattern: gpard's identify kernel then takes S(x) as the answer, and
// otherwise confirms only x's survivors, inside the filter's sets.
//
// The engine runs on the frozen CSR representation of the data graph
// (graph.Freeze): candidate generation iterates label-contiguous arena
// ranges instead of scanning whole adjacency lists, the used-set is an
// epoch-stamped array instead of a map, and all search state lives in a
// pooled, rebindable Matcher — so the hot loops of algorithms Match, DMine
// and the gpard serving path allocate nothing in steady state. Callers with
// many anchored probes against one (pattern, graph) pair should obtain a
// Matcher once via NewMatcher and Release it when done; the package-level
// functions are one-shot conveniences over the same pool.
package match

import (
	"cmp"
	"slices"
	"sync"

	"gpar/internal/graph"
	"gpar/internal/pattern"
	"gpar/internal/sketch"
)

// Options tunes a matching run. The zero value is a plain unguided matcher.
type Options struct {
	// Guided enables sketch-based candidate ordering and feasibility
	// pruning. Requires Sketches.
	Guided bool
	// Sketches is the data-graph sketch index used when Guided is set.
	Sketches *sketch.Index
	// MaxMatches caps enumeration (0 = unlimited). Existence checks ignore
	// it.
	MaxMatches int
	// Canonical makes the candidate source at each search level the first
	// (in pattern-edge order) mapped neighbor's CSR range instead of the
	// smallest one. Range lengths depend on which other nodes a fragment
	// happens to contain, so the smallest-first heuristic makes the
	// *enumeration order* of matches fragment-layout-dependent even though
	// the match set never is. With Canonical set — and data graphs whose
	// local IDs ascend in a globally consistent order, which
	// partition.Partition guarantees — anchored enumeration visits matches
	// in an order that is a pure function of the pattern and the global
	// node IDs. The mining loop relies on this to make Options.EmbedCap
	// truncation identical for every fragment layout / worker count.
	// Existence checks gain nothing from it and keep the faster heuristic.
	Canonical bool
}

// phalf is one incident pattern edge seen from a node.
type phalf struct {
	other    int
	label    graph.Label
	outgoing bool // true when the edge leaves this node
}

// scoredCand is one guided candidate with its sketch slack score.
type scoredCand struct {
	v graph.NodeID
	s int
}

const unassigned = graph.NodeID(-1)

// Matcher is a reusable compiled matcher for one (pattern, graph, options)
// binding. All slices are retained across bindings and grown only when a
// larger pattern or graph arrives, so a pooled Matcher performing repeated
// anchored probes allocates nothing. A Matcher is not safe for concurrent
// use; obtain one per goroutine. The bound graph must stay frozen and
// unmutated for the Matcher's lifetime: binding sizes the used-set to the
// graph's node count, so growing the graph mid-lifetime is out of
// contract (edge checks degrade safely to scans, node growth does not).
type Matcher struct {
	p    *pattern.Pattern // expanded pattern
	g    *graph.Graph
	opts Options

	// Pattern-side compiled state, rebuilt per binding reusing capacity.
	phalfs []phalf // flat incident-edge arena
	poff   []int32 // len n+1; node u's halves are phalfs[poff[u]:poff[u+1]]
	pcur   []int32 // fill cursor scratch
	pdeg   []int
	order  []int  // pattern nodes in visit order (BFS from x)
	seen   []bool // buildOrder scratch

	// Per-search state.
	asgn []graph.NodeID
	// used is the epoch-stamped used-set over data nodes: used[v] == epoch
	// means v is on the current search path. Rebinding bumps the epoch
	// instead of clearing, so switching graphs or patterns is O(1).
	used  []uint32
	epoch uint32

	// Guided state.
	needSk []sketch.Sketch
	cbufs  [][]scoredCand // per-depth candidate buffers, reused across calls

	// sets are a Filter's per-node bitsets (Filter.Restrict), nil when
	// unrestricted; nodes past len(sets) are unrestricted.
	sets [][]uint64
}

var matcherPool = sync.Pool{New: func() any { return new(Matcher) }}

// NewMatcher returns a pooled Matcher bound to (p, g, opts). It freezes g
// (a no-op when already frozen) and precomputes the pattern adjacency and
// visit order rooted at p's designated x. Call Release when done to return
// the Matcher — and its grown buffers — to the pool.
func NewMatcher(p *pattern.Pattern, g *graph.Graph, opts Options) *Matcher {
	m := matcherPool.Get().(*Matcher)
	m.bind(p, g, opts)
	return m
}

// Release returns the Matcher to the pool. The Matcher must not be used
// afterwards. A restricted Matcher must be released before its Filter;
// the pooled Matcher forgets the restriction.
func (m *Matcher) Release() {
	m.p, m.g = nil, nil
	m.opts = Options{}
	m.needSk, m.sets = nil, nil
	matcherPool.Put(m)
}

func (m *Matcher) bind(p *pattern.Pattern, g *graph.Graph, opts Options) {
	g.Freeze() // no-op (atomic load) when already frozen
	pe := p.Expand()
	m.p, m.g, m.opts, m.sets = pe, g, opts, nil

	n := pe.NumNodes()
	edges := pe.Edges()
	m.pdeg = grow(m.pdeg, n)
	for i := range m.pdeg {
		m.pdeg[i] = 0
	}
	for _, e := range edges {
		m.pdeg[e.From]++
		m.pdeg[e.To]++
	}
	m.poff = grow(m.poff, n+1)
	m.poff[0] = 0
	for u := 0; u < n; u++ {
		m.poff[u+1] = m.poff[u] + int32(m.pdeg[u])
	}
	m.phalfs = grow(m.phalfs, 2*len(edges))
	m.pcur = grow(m.pcur, n)
	copy(m.pcur, m.poff[:n])
	for _, e := range edges {
		m.phalfs[m.pcur[e.From]] = phalf{other: e.To, label: e.Label, outgoing: true}
		m.pcur[e.From]++
		m.phalfs[m.pcur[e.To]] = phalf{other: e.From, label: e.Label, outgoing: false}
		m.pcur[e.To]++
	}

	m.asgn = grow(m.asgn, n)
	for i := range m.asgn {
		m.asgn[i] = unassigned
	}
	nn := g.NumNodes()
	if cap(m.used) < nn {
		m.used = make([]uint32, nn)
		m.epoch = 0
	}
	m.used = m.used[:nn]
	m.epoch++
	if m.epoch == 0 { // wraparound: stale stamps could alias, clear once
		for i := range m.used {
			m.used[i] = 0
		}
		m.epoch = 1
	}

	m.needSk = nil
	if opts.Guided && opts.Sketches != nil {
		// Cached per pattern identity on the index, so long-lived indexes
		// (one per serving fragment) compute pattern sketches exactly once.
		m.needSk = opts.Sketches.PatternSketches(p)
	}

	if n > 0 {
		root := pe.X
		if root == pattern.NoNode {
			root = 0
		}
		m.buildOrder(root)
	} else {
		m.order = m.order[:0]
	}
}

// grow returns s resized to length n, reallocating only when the retained
// capacity is too small. Contents are unspecified; callers overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// halves returns the incident pattern edges of node u.
func (m *Matcher) halves(u int) []phalf {
	return m.phalfs[m.poff[u]:m.poff[u+1]]
}

// buildOrder fixes the visit order: BFS from root (usually x) through its
// component, then BFS from the first unvisited node of each remaining
// component. Anchored components first makes candidate sets small. The
// order slice doubles as the BFS queue.
func (m *Matcher) buildOrder(root int) {
	n := m.p.NumNodes()
	m.seen = grow(m.seen, n)
	for i := range m.seen {
		m.seen[i] = false
	}
	m.order = m.order[:0]
	scan := 0
	bfs := func(start int) {
		m.seen[start] = true
		m.order = append(m.order, start)
		for scan < len(m.order) {
			u := m.order[scan]
			scan++
			for _, h := range m.halves(u) {
				if !m.seen[h.other] {
					m.seen[h.other] = true
					m.order = append(m.order, h.other)
				}
			}
		}
	}
	if root >= 0 && root < n {
		bfs(root)
	}
	for u := 0; u < n; u++ {
		if !m.seen[u] {
			bfs(u)
		}
	}
}

// feasible applies filter-set, label, degree and (optionally) sketch pruning.
func (m *Matcher) feasible(u int, v graph.NodeID) bool {
	if u < len(m.sets) && !inSet(m.sets[u], v) {
		return false
	}
	if m.g.Label(v) != m.p.Label(u) {
		return false
	}
	if m.g.Degree(v) < m.pdeg[u] {
		return false
	}
	if m.needSk != nil {
		if _, ok := sketch.Score(m.opts.Sketches.Sketch(v), m.needSk[u]); !ok {
			return false
		}
	}
	return true
}

// consistent verifies all pattern edges between u and already-assigned
// nodes. The half at arena index skip — the one whose CSR range produced
// the candidate — is satisfied by construction and not re-verified.
func (m *Matcher) consistent(u int, v graph.NodeID, skip int32) bool {
	base := m.poff[u]
	for i, h := range m.halves(u) {
		if base+int32(i) == skip {
			continue
		}
		w := m.asgn[h.other]
		if h.other == u {
			w = v // pattern self-loop: the data node must carry it too
		} else if w == unassigned {
			continue
		}
		if h.outgoing {
			if !m.g.HasEdge(v, w, h.label) {
				return false
			}
		} else if !m.g.HasEdge(w, v, h.label) {
			return false
		}
	}
	return true
}

// search assigns order[idx..]; fn receives each complete assignment and
// returns false to stop the whole search. search reports whether the search
// was stopped early.
//
// Candidates for order[idx] come from the smallest label-contiguous CSR
// range of a mapped pattern neighbor (binary-searched, not scanned), or
// from the precomputed node-label index when no neighbor is mapped yet.
// Unguided search iterates the range in place; guided search materializes
// it into the per-depth reusable buffer to sort by sketch score.
func (m *Matcher) search(idx int, fn func(asgn []graph.NodeID) bool) bool {
	if idx == len(m.order) {
		return !fn(m.asgn)
	}
	u := m.order[idx]
	var es []graph.Edge   // anchored source: candidates are e.To
	var ns []graph.NodeID // label-index source
	skip := int32(-1)     // arena index of the half that anchored es
	base := m.poff[u]
	for i, h := range m.halves(u) {
		w := m.asgn[h.other]
		if w == unassigned {
			continue
		}
		var r []graph.Edge
		if h.outgoing {
			// Pattern edge u -> other: data candidates v have v -> w, i.e.
			// they appear in w's incoming range for the label.
			r = m.g.InRangeL(w, h.label)
		} else {
			r = m.g.OutRangeL(w, h.label)
		}
		if len(r) == 0 {
			return false // some mapped neighbor admits no extension
		}
		// Canonical mode anchors on the first mapped half; the default picks
		// the smallest range. Either way consistent() verifies the rest.
		if skip < 0 || (!m.opts.Canonical && len(r) < len(es)) {
			es, skip = r, base+int32(i)
		}
	}
	if skip < 0 {
		ns = m.g.NodesWithLabel(m.p.Label(u))
	}
	if m.needSk != nil {
		return m.searchGuided(idx, u, es, ns, skip, fn)
	}
	if skip >= 0 {
		for _, e := range es {
			if m.tryAssign(idx, u, e.To, skip, fn) {
				return true
			}
		}
		return false
	}
	for _, v := range ns {
		if m.tryAssign(idx, u, v, -1, fn) {
			return true
		}
	}
	return false
}

// tryAssign attempts order[idx] = v and recurses. It reports whether the
// search was stopped early.
func (m *Matcher) tryAssign(idx, u int, v graph.NodeID, skip int32, fn func(asgn []graph.NodeID) bool) bool {
	if m.used[v] == m.epoch || !m.feasible(u, v) || !m.consistent(u, v, skip) {
		return false
	}
	m.asgn[u] = v
	m.used[v] = m.epoch
	stopped := m.search(idx+1, fn)
	m.asgn[u] = unassigned
	m.used[v] = 0
	return stopped
}

// searchGuided is the guided variant of one search level: candidates are
// scored against the pattern sketch, infeasible ones dropped, and the rest
// visited in descending slack order ("the larger the difference is, the
// more likely v' matches u'").
func (m *Matcher) searchGuided(idx, u int, es []graph.Edge, ns []graph.NodeID, skip int32, fn func(asgn []graph.NodeID) bool) bool {
	for len(m.cbufs) <= idx {
		m.cbufs = append(m.cbufs, nil)
	}
	buf := m.cbufs[idx][:0]
	want := m.p.Label(u)
	add := func(v graph.NodeID) {
		if m.g.Label(v) != want {
			return
		}
		s, ok := sketch.Score(m.opts.Sketches.Sketch(v), m.needSk[u])
		if !ok {
			return
		}
		buf = append(buf, scoredCand{v, s})
	}
	if skip >= 0 {
		for _, e := range es {
			add(e.To)
		}
	} else {
		for _, v := range ns {
			add(v)
		}
	}
	sortScored(buf)
	m.cbufs[idx] = buf // retain grown capacity
	for _, sc := range buf {
		// Label and sketch feasibility were established by add; only the
		// degree bound, the used-set and edge consistency remain.
		v := sc.v
		if m.used[v] == m.epoch || m.g.Degree(v) < m.pdeg[u] || !m.consistent(u, v, skip) {
			continue
		}
		m.asgn[u] = v
		m.used[v] = m.epoch
		stopped := m.search(idx+1, fn)
		m.asgn[u] = unassigned
		m.used[v] = 0
		if stopped {
			return true
		}
	}
	return false
}

// sortScored orders candidates by descending score, then ascending ID for
// determinism. slices.SortFunc does not allocate, keeping the guided hot
// path allocation-free.
func sortScored(a []scoredCand) {
	slices.SortFunc(a, func(x, y scoredCand) int {
		if x.s != y.s {
			return cmp.Compare(y.s, x.s)
		}
		return cmp.Compare(x.v, y.v)
	})
}

// HasMatchAt reports whether the bound pattern has a match h with h(x) = v.
// This is the early-terminating membership test of algorithm Match: it
// stops at the first complete embedding. It may be called repeatedly with
// different anchors; no state leaks between calls.
func (m *Matcher) HasMatchAt(v graph.NodeID) bool {
	n := m.p.NumNodes()
	if n == 0 {
		return false
	}
	x := m.p.X
	if x == pattern.NoNode {
		x = 0
	}
	// consistent at the anchor is vacuous except for self-loops at x.
	if x >= n || !m.feasible(x, v) || !m.consistent(x, v, -1) {
		return false
	}
	m.asgn[x] = v
	m.used[v] = m.epoch
	found := false
	m.search(1, func([]graph.NodeID) bool {
		found = true
		return false
	})
	m.asgn[x] = unassigned
	m.used[v] = 0
	return found
}

// EnumerateAnchored enumerates the matches h with h(x) = v, invoking fn for
// each (the slice passed to fn is reused; fn must copy it to retain it; fn
// returning false stops the search). It returns the number of matches
// visited, capped by Options.MaxMatches when set.
func (m *Matcher) EnumerateAnchored(v graph.NodeID, fn func(asgn []graph.NodeID) bool) int {
	n := m.p.NumNodes()
	if n == 0 {
		return 0
	}
	x := m.p.X
	if x == pattern.NoNode {
		x = 0
	}
	if x >= n || !m.feasible(x, v) || !m.consistent(x, v, -1) {
		return 0
	}
	m.asgn[x] = v
	m.used[v] = m.epoch
	count := 0
	m.search(1, func(asgn []graph.NodeID) bool {
		count++
		if fn != nil && !fn(asgn) {
			return false
		}
		return m.opts.MaxMatches == 0 || count < m.opts.MaxMatches
	})
	m.asgn[x] = unassigned
	m.used[v] = 0
	return count
}

// Enumerate invokes fn for every complete match in the graph (all
// embeddings, not only distinct x images), the full-enumeration behaviour
// of the disVF2 baseline. Same fn contract as EnumerateAnchored.
func (m *Matcher) Enumerate(fn func(asgn []graph.NodeID) bool) int {
	if m.p.NumNodes() == 0 {
		return 0
	}
	count := 0
	m.search(0, func(asgn []graph.NodeID) bool {
		count++
		if fn != nil && !fn(asgn) {
			return false
		}
		return m.opts.MaxMatches == 0 || count < m.opts.MaxMatches
	})
	return count
}

// HasMatchAt reports whether p has a match h with h(p.X) = v in g. One-shot
// form of Matcher.HasMatchAt; callers probing many anchors should hold a
// Matcher instead.
func HasMatchAt(p *pattern.Pattern, g *graph.Graph, v graph.NodeID, opts Options) bool {
	m := NewMatcher(p, g, opts)
	ok := m.HasMatchAt(v)
	m.Release()
	return ok
}

// MatchSet returns Q(x,G) restricted to the candidate set: the distinct data
// nodes v in cands such that some match maps the designated x to v. If cands
// is nil, all nodes with x's label are tried. The result preserves candidate
// order.
func MatchSet(p *pattern.Pattern, g *graph.Graph, cands []graph.NodeID, opts Options) []graph.NodeID {
	m := NewMatcher(p, g, opts)
	defer m.Release()
	if m.p.X == pattern.NoNode {
		return nil
	}
	if cands == nil {
		cands = g.NodesWithLabel(m.p.Label(m.p.X))
	}
	var out []graph.NodeID
	for _, v := range cands {
		if m.HasMatchAt(v) {
			out = append(out, v)
		}
	}
	return out
}

// Enumerate invokes fn for every complete match of p in g (all embeddings,
// not only distinct x images), the full-enumeration behaviour of the disVF2
// baseline. The slice passed to fn is reused between calls; fn must copy it
// to retain it. fn returns false to stop. Enumerate returns the number of
// matches visited. opts.MaxMatches caps the enumeration.
func Enumerate(p *pattern.Pattern, g *graph.Graph, opts Options, fn func(asgn []graph.NodeID) bool) int {
	m := NewMatcher(p, g, opts)
	n := m.Enumerate(fn)
	m.Release()
	return n
}

// ImageSets returns, for every (expanded) pattern node, the set of distinct
// data nodes it maps to over all matches. It underlies the minimum
// image-based support of Bringmann and Nijssen that the paper evaluates as
// the "Iconf" alternative (Sections 3 and 6). opts.MaxMatches bounds the
// enumeration cost.
func ImageSets(p *pattern.Pattern, g *graph.Graph, opts Options) []map[graph.NodeID]bool {
	pe := p.Expand()
	sets := make([]map[graph.NodeID]bool, pe.NumNodes())
	for i := range sets {
		sets[i] = make(map[graph.NodeID]bool)
	}
	Enumerate(p, g, opts, func(asgn []graph.NodeID) bool {
		for u, v := range asgn {
			sets[u][v] = true
		}
		return true
	})
	return sets
}

// MinImageSupport returns the minimum image-based support of p in g: the
// minimum over pattern nodes of the number of distinct images.
func MinImageSupport(p *pattern.Pattern, g *graph.Graph, opts Options) int {
	sets := ImageSets(p, g, opts)
	if len(sets) == 0 {
		return 0
	}
	minN := -1
	for _, s := range sets {
		if minN < 0 || len(s) < minN {
			minN = len(s)
		}
	}
	return minN
}

// EnumerateAnchored enumerates the matches h of p in g with h(p.X) = v,
// invoking fn for each (same contract as Enumerate). It returns the number
// of matches visited. It powers the extension-discovery step of algorithm
// DMine, which must see whole embeddings rather than just existence.
func EnumerateAnchored(p *pattern.Pattern, g *graph.Graph, v graph.NodeID, opts Options, fn func(asgn []graph.NodeID) bool) int {
	m := NewMatcher(p, g, opts)
	n := m.EnumerateAnchored(v, fn)
	m.Release()
	return n
}
