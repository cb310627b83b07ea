// Package sketch implements the k-hop neighborhood sketches K(v) of
// Section 5.2 of "Association Rules with Graph Patterns" (PVLDB 2015): for
// each node v, a list {(1, D1), ..., (k, Dk)} where Di is the distribution
// of node labels and their frequencies around v. Algorithm Match uses the
// sketches for guided search: a data node v' can only match pattern node u'
// if v's sketch dominates u's at every hop, and candidates are ranked by
// the total frequency slack f(u', v') = Σi (Di - D'i).
//
// Di here counts distinct nodes within distance <= i (cumulative), not at
// exactly hop i: under subgraph isomorphism, pattern distances can only
// shrink in the data (d_G(h(u), h(v)) <= d_Q(u, v)), so per-exact-hop
// dominance is not a necessary condition while cumulative dominance is.
package sketch

import (
	"sync"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// Sketch is a k-hop label-frequency sketch: Sketch[i] is the distribution of
// distinct nodes within undirected distance i+1, excluding the node itself.
type Sketch []map[graph.Label]int

// Score returns f(u', v') = Σi Σlabels (Di(v') - D'i(u')), the total
// frequency slack over the labels the pattern requires, and whether the
// candidate is feasible at all. Larger scores rank earlier in guided search
// ("the larger the difference is, the more likely v' matches u'").
func Score(data, need Sketch) (score int, feasible bool) {
	for i := range need {
		for l, want := range need[i] {
			var have int
			if i < len(data) {
				have = data[i][l]
			}
			if have < want {
				return 0, false
			}
			score += have - want
		}
	}
	return score, true
}

// Of computes the k-hop sketch of node v in g: one walk of radius k counts
// each node's label at its own depth, and a pass over the levels makes the
// counts cumulative.
func Of(g *graph.Graph, v graph.NodeID, k int) Sketch {
	sk := make(Sketch, k)
	for i := range sk {
		sk[i] = make(map[graph.Label]int)
	}
	g.Walk(v, k, func(w graph.NodeID, depth int) bool {
		if depth > 0 {
			sk[depth-1][g.Label(w)]++
		}
		return true
	})
	for i := 1; i < k; i++ {
		for l, c := range sk[i-1] {
			sk[i][l] += c
		}
	}
	return sk
}

// Index lazily computes and caches data-node sketches for one graph. It is
// safe for concurrent use.
type Index struct {
	g *graph.Graph
	k int

	mu    sync.Mutex
	cache map[graph.NodeID]Sketch

	pmu    sync.Mutex
	pcache map[*pattern.Pattern][]Sketch
}

// NewIndex returns a sketch index of depth k over g.
func NewIndex(g *graph.Graph, k int) *Index {
	return &Index{
		g:      g,
		k:      k,
		cache:  make(map[graph.NodeID]Sketch),
		pcache: make(map[*pattern.Pattern][]Sketch),
	}
}

// PatternSketches returns the k-hop sketches of every node of p's
// multiplicity expansion, indexed by expanded node index, cached by pattern
// identity. The matcher calls this once per binding, so repeated rule
// evaluations over a long-lived index (one per serving fragment) pay the
// pattern-sketch construction exactly once.
func (ix *Index) PatternSketches(p *pattern.Pattern) []Sketch {
	ix.pmu.Lock()
	sks, ok := ix.pcache[p]
	ix.pmu.Unlock()
	if ok {
		return sks
	}
	pe := p.Expand()
	sks = make([]Sketch, pe.NumNodes())
	for u := range sks {
		dist := pe.DistancesFrom(u)
		sks[u] = make(Sketch, ix.k)
		for i := range sks[u] {
			sks[u][i] = make(map[graph.Label]int)
			for w, d := range dist {
				if d > 0 && d <= i+1 {
					sks[u][i][pe.Label(w)]++
				}
			}
		}
	}
	ix.pmu.Lock()
	ix.pcache[p] = sks
	ix.pmu.Unlock()
	return sks
}

// Sketch returns the (cached) sketch of v.
func (ix *Index) Sketch(v graph.NodeID) Sketch {
	ix.mu.Lock()
	s, ok := ix.cache[v]
	ix.mu.Unlock()
	if ok {
		return s
	}
	s = Of(ix.g, v, ix.k)
	ix.mu.Lock()
	ix.cache[v] = s
	ix.mu.Unlock()
	return s
}
