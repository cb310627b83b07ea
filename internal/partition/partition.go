// Package partition divides a data graph into the fragments used by the
// parallel algorithms DMine and Match of "Association Rules with Graph
// Patterns" (PVLDB 2015), Sections 4.2 and 5.1: graph G is split into n
// fragments (F1, ..., Fn) such that (a) for each candidate node vx the whole
// d-neighborhood Gd(vx) lies inside the fragment that owns vx, and (b) the
// fragments have roughly even size. Candidates are assigned greedily to the
// least-loaded fragment (a deterministic stand-in for the Ja-be-Ja-style
// balanced partitioner the paper revises).
//
// Every candidate is owned by exactly one fragment; fragment graphs may
// replicate non-owned neighborhood nodes, which is safe because all support
// counting in the paper's algorithms runs over owned centers only.
//
// A fragment is what a process without the graph needs: distributed DMine
// ships one to each remote worker, and eip.Match reproduces the paper's
// figures on them. In-process DMine does not partition; its workers share
// the one graph through Whole.
package partition

import (
	"fmt"
	"slices"

	"gpar/internal/graph"
)

// Fragment is one worker's share of the graph.
type Fragment struct {
	// G is the fragment graph: the subgraph of the original induced by the
	// union of the owned candidates' d-neighborhoods.
	G *graph.Graph
	// Centers lists the owned candidate nodes as local IDs in G.
	Centers []graph.NodeID
	// ToGlobal maps local node IDs back to the original graph. It is nil on
	// the identity fragment Whole returns, whose local IDs are the global
	// ones.
	ToGlobal []graph.NodeID

	// The inverse of ToGlobal. The miner translates every frontier center
	// every round, so fragments covering a meaningful share of the graph
	// (the common DMine shape: d-neighborhood closures overlap heavily)
	// use a dense array over the original ID space (-1 = absent); tiny
	// fragments of huge graphs fall back to a map, so the inverse a worker
	// builds is bounded by the fragment it was sent, not by the node count
	// the encoding claims.
	toLocalDense []graph.NodeID
	toLocalMap   map[graph.NodeID]graph.NodeID
	// numGlobal is the original graph's node count — the domain of Local()
	// and the dense/sparse decision above. Recorded so a fragment decoded
	// from the wire rebuilds the same inverse and re-encodes identically.
	numGlobal int
}

// Global translates a local node ID to the original graph's ID.
func (f *Fragment) Global(v graph.NodeID) graph.NodeID {
	if f.ToGlobal == nil {
		return v
	}
	return f.ToGlobal[v]
}

// Local translates an original-graph ID to this fragment's local ID. The
// second result is false when the node is not present in the fragment.
func (f *Fragment) Local(v graph.NodeID) (graph.NodeID, bool) {
	if f.ToGlobal == nil {
		return v, int(v) < f.G.NumNodes()
	}
	if f.toLocalDense != nil {
		if int(v) >= len(f.toLocalDense) || f.toLocalDense[v] < 0 {
			return 0, false
		}
		return f.toLocalDense[v], true
	}
	lv, ok := f.toLocalMap[v]
	return lv, ok
}

// setToLocal installs the inverse mapping, choosing dense form when the
// fragment holds at least 1/16 of the original graph's nodes.
func (f *Fragment) setToLocal(n int, toGlobal []graph.NodeID, m map[graph.NodeID]graph.NodeID) {
	f.numGlobal = n
	if len(toGlobal)*16 < n {
		f.toLocalMap = m
		return
	}
	inv := make([]graph.NodeID, n)
	for i := range inv {
		inv[i] = -1
	}
	for lv, gv := range toGlobal {
		inv[gv] = graph.NodeID(lv)
	}
	f.toLocalDense = inv
}

// Size reports |F| = |V| + |E| of the fragment graph.
func (f *Fragment) Size() int { return f.G.Size() }

// Partition splits g into n fragments covering the d-neighborhoods of the
// given candidate nodes. It panics if n < 1. Candidates are processed in
// input order and greedily assigned to the least-loaded fragment, measured
// by the accumulated d-neighborhood size, so the result is deterministic.
//
// Fragment node order is canonical: local IDs ascend in global-ID order,
// so any iteration that is sorted locally (frozen CSR ranges, the label
// candidate index) is also sorted globally. Match enumeration order over a
// fragment is then a pure function of the global graph — the property
// mine.Options.EmbedCap needs for layout-independent truncation.
func Partition(g *graph.Graph, cands []graph.NodeID, n, d int) []*Fragment {
	if n < 1 {
		panic(fmt.Sprintf("partition: n = %d", n))
	}
	// Bucket candidates by load: the accumulated, not deduplicated, hood
	// size. The deduplicated node count saturates at |V| after a few dense
	// hoods and then ties forever, which would send every later candidate to
	// fragment 0.
	type bucket struct {
		cands []graph.NodeID
		load  int
		seen  []bool
		order []graph.NodeID // fragment nodes in first-seen order
	}
	buckets := make([]*bucket, n)
	for i := range buckets {
		buckets[i] = &bucket{seen: make([]bool, g.NumNodes())}
	}
	var hood []graph.NodeID // recycled across candidates
	for _, vx := range cands {
		hood = g.AppendNeighborhood(hood[:0], vx, d)
		// Least-loaded fragment; ties broken by index for determinism.
		best := 0
		for i := 1; i < n; i++ {
			if buckets[i].load < buckets[best].load {
				best = i
			}
		}
		b := buckets[best]
		b.cands = append(b.cands, vx)
		b.load += len(hood)
		for _, u := range hood {
			if !b.seen[u] {
				b.seen[u] = true
				b.order = append(b.order, u)
			}
		}
	}
	frags := make([]*Fragment, n)
	for i, b := range buckets {
		// Canonical local IDs: global-ID ascending, not first-seen order.
		slices.Sort(b.order)
		sub, toLocal, toGlobal := g.InducedSubgraph(b.order)
		f := &Fragment{G: sub, ToGlobal: toGlobal}
		f.setToLocal(g.NumNodes(), toGlobal, toLocal)
		for _, vx := range b.cands {
			f.Centers = append(f.Centers, toLocal[vx])
		}
		frags[i] = f
	}
	return frags
}

// Whole wraps g itself as the identity fragment owning the given candidates:
// no copy of the graph, local IDs are global IDs, and no translation table in
// either direction, so it costs O(1) whatever the graph's size. Centers
// aliases cands, which the fragment's users only read. In-process DMine
// gives each worker one of these over its chunk of the candidate list.
func Whole(g *graph.Graph, cands []graph.NodeID) *Fragment {
	return &Fragment{G: g, Centers: cands, numGlobal: g.NumNodes()}
}
