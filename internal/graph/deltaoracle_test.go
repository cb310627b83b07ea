// The graph-level mutation differential oracle: randomized delta batches
// applied through the overlay must be observationally identical — across
// every exported read path — to a graph rebuilt from scratch with the same
// logical content. The serve-level oracle (internal/serve) pins the same
// property one layer up, for identify responses and DMine Σ.
package graph_test

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
)

// deltaModel is the reference state the oracle mutates in lockstep with the
// overlay: plain labels plus an edge set, from which a fresh frozen graph
// can be rebuilt at any step.
type deltaModel struct {
	syms   *graph.Symbols
	labels []graph.Label
	edges  map[[3]int32]bool // (from, to, label)
}

func newDeltaModel(g *graph.Graph) *deltaModel {
	m := &deltaModel{syms: g.Symbols(), edges: make(map[[3]int32]bool)}
	for v := 0; v < g.NumNodes(); v++ {
		m.labels = append(m.labels, g.Label(graph.NodeID(v)))
		for _, e := range g.Out(graph.NodeID(v)) {
			m.edges[[3]int32{int32(v), int32(e.To), int32(e.Label)}] = true
		}
	}
	return m
}

// apply mirrors ApplyDelta's semantics onto the model. Ops are pre-validated
// by the generator, so none may fail.
func (m *deltaModel) apply(ops []graph.DeltaOp) {
	for _, op := range ops {
		switch op.Kind {
		case graph.DeltaAddNode:
			m.labels = append(m.labels, op.Label)
		case graph.DeltaAddEdge:
			m.edges[[3]int32{int32(op.From), int32(op.To), int32(op.Label)}] = true
		case graph.DeltaDelEdge:
			delete(m.edges, [3]int32{int32(op.From), int32(op.To), int32(op.Label)})
		case graph.DeltaSetLabel:
			m.labels[op.Node] = op.Label
		}
	}
}

// rebuild constructs a fresh frozen graph with the model's exact content.
func (m *deltaModel) rebuild() *graph.Graph {
	g := graph.New(m.syms)
	for _, l := range m.labels {
		g.AddNodeL(l)
	}
	keys := make([][3]int32, 0, len(m.edges))
	for k := range m.edges {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [3]int32) int {
		for i := range a {
			if a[i] != b[i] {
				return int(a[i]) - int(b[i])
			}
		}
		return 0
	})
	for _, k := range keys {
		g.AddEdgeL(graph.NodeID(k[0]), graph.NodeID(k[1]), graph.Label(k[2]))
	}
	g.Freeze()
	return g
}

// randBatch generates 1..8 valid ops against the model's current state,
// mutating the model as it goes so intra-batch references stay valid.
func (m *deltaModel) randBatch(rng *rand.Rand, nodeLabels, edgeLabels []graph.Label) []graph.DeltaOp {
	n := 1 + rng.Intn(8)
	ops := make([]graph.DeltaOp, 0, n)
	for len(ops) < n {
		var op graph.DeltaOp
		switch rng.Intn(10) {
		case 0: // add node
			op = graph.DeltaOp{Kind: graph.DeltaAddNode,
				Label: nodeLabels[rng.Intn(len(nodeLabels))]}
		case 1, 2: // relabel
			op = graph.DeltaOp{Kind: graph.DeltaSetLabel,
				Node:  graph.NodeID(rng.Intn(len(m.labels))),
				Label: nodeLabels[rng.Intn(len(nodeLabels))]}
		case 3, 4, 5: // delete a random existing edge
			if len(m.edges) == 0 {
				continue
			}
			i, target := rng.Intn(len(m.edges)), [3]int32{}
			for k := range m.edges {
				if i == 0 {
					target = k
					break
				}
				i--
			}
			op = graph.DeltaOp{Kind: graph.DeltaDelEdge,
				From:  graph.NodeID(target[0]),
				To:    graph.NodeID(target[1]),
				Label: graph.Label(target[2])}
		default: // add a fresh edge
			from := int32(rng.Intn(len(m.labels)))
			to := int32(rng.Intn(len(m.labels)))
			l := edgeLabels[rng.Intn(len(edgeLabels))]
			if m.edges[[3]int32{from, to, int32(l)}] {
				continue
			}
			op = graph.DeltaOp{Kind: graph.DeltaAddEdge,
				From: graph.NodeID(from), To: graph.NodeID(to), Label: l}
		}
		m.apply([]graph.DeltaOp{op})
		ops = append(ops, op)
	}
	return ops
}

// compareGraphs checks every exported read path agrees between the overlay
// graph and the rebuilt reference.
func compareGraphs(t *testing.T, tag string, got, want *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: size |V|=%d/%d |E|=%d/%d", tag,
			got.NumNodes(), want.NumNodes(), got.NumEdges(), want.NumEdges())
	}
	// Every interned label, node label or not: absent ones must read empty
	// on both sides.
	interned := graph.Label(want.Symbols().Len())
	for l := graph.Label(1); l <= interned; l++ {
		if !slices.Equal(got.NodesWithLabel(l), want.NodesWithLabel(l)) {
			t.Fatalf("%s: NodesWithLabel(%d) %v != %v", tag, l,
				got.NodesWithLabel(l), want.NodesWithLabel(l))
		}
	}
	edgeLabels := map[graph.Label]bool{}
	for v := graph.NodeID(0); int(v) < want.NumNodes(); v++ {
		if got.Label(v) != want.Label(v) {
			t.Fatalf("%s: Label(%d) %d != %d", tag, v, got.Label(v), want.Label(v))
		}
		if !slices.Equal(got.Out(v), want.Out(v)) {
			t.Fatalf("%s: Out(%d) %v != %v", tag, v, got.Out(v), want.Out(v))
		}
		if !slices.Equal(got.In(v), want.In(v)) {
			t.Fatalf("%s: In(%d) %v != %v", tag, v, got.In(v), want.In(v))
		}
		if got.Degree(v) != want.Degree(v) {
			t.Fatalf("%s: Degree(%d)", tag, v)
		}
		for _, e := range want.Out(v) {
			edgeLabels[e.Label] = true
			if !got.HasEdge(v, e.To, e.Label) {
				t.Fatalf("%s: HasEdge(%d,%d,%d) missing", tag, v, e.To, e.Label)
			}
		}
	}
	// Label-range iterators — the matcher's bread and butter — for every
	// (node, edge label) pair, plus an absent label.
	probe := append(slices.Collect(func(yield func(graph.Label) bool) {
		for l := range edgeLabels {
			if !yield(l) {
				return
			}
		}
	}), graph.Label(1))
	for v := graph.NodeID(0); int(v) < want.NumNodes(); v++ {
		for _, l := range probe {
			if !slices.Equal(got.OutRangeL(v, l), want.OutRangeL(v, l)) {
				t.Fatalf("%s: OutRangeL(%d,%d) %v != %v", tag, v, l,
					got.OutRangeL(v, l), want.OutRangeL(v, l))
			}
			if !slices.Equal(got.InRangeL(v, l), want.InRangeL(v, l)) {
				t.Fatalf("%s: InRangeL(%d,%d) %v != %v", tag, v, l,
					got.InRangeL(v, l), want.InRangeL(v, l))
			}
		}
	}
	// The walk-backed paths on a sample of nodes: Walk's (node, depth) set,
	// Nr(v) and label distances. Adjacency order may differ between the
	// overlay and the rebuild, so the walks compare as sets.
	walk := func(g *graph.Graph, v graph.NodeID, r int) map[graph.NodeID]int {
		at := map[graph.NodeID]int{}
		g.Walk(v, r, func(w graph.NodeID, depth int) bool {
			if _, dup := at[w]; dup {
				t.Fatalf("%s: Walk(%d,%d) visits %d twice", tag, v, r, w)
			}
			at[w] = depth
			return true
		})
		return at
	}
	for v := graph.NodeID(0); int(v) < want.NumNodes(); v += 7 {
		for r := 1; r <= 3; r++ {
			if gw, ww := walk(got, v, r), walk(want, v, r); !maps.Equal(gw, ww) {
				t.Fatalf("%s: Walk(%d,%d) %v != %v", tag, v, r, gw, ww)
			}
			gn, wn := got.AppendNeighborhood(nil, v, r), want.AppendNeighborhood(nil, v, r)
			slices.Sort(gn)
			slices.Sort(wn)
			if !slices.Equal(gn, wn) {
				t.Fatalf("%s: Neighborhood(%d,%d)", tag, v, r)
			}
		}
		for l := graph.Label(1); l <= interned; l++ {
			if got.LabelWithinDistance(v, l, 2) != want.LabelWithinDistance(v, l, 2) {
				t.Fatalf("%s: LabelWithinDistance(%d,%d,2)", tag, v, l)
			}
		}
	}
}

// TestDeltaGraphOracle drives randomized add/delete/relabel/compact
// sequences through the overlay and pins observational equality with a
// from-scratch rebuild after every batch.
func TestDeltaGraphOracle(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			syms := graph.NewSymbols()
			base := gen.Synthetic(syms, 60, 150, seed)
			base.Freeze()
			var nodeLabels, edgeLabels []graph.Label
			for l := graph.Label(1); int(l) <= syms.Len(); l++ {
				if len(base.NodesWithLabel(l)) > 0 {
					nodeLabels = append(nodeLabels, l)
				}
			}
			seen := map[graph.Label]bool{}
			for v := graph.NodeID(0); int(v) < base.NumNodes(); v++ {
				for _, e := range base.Out(v) {
					if !seen[e.Label] {
						seen[e.Label] = true
						edgeLabels = append(edgeLabels, e.Label)
					}
				}
			}
			// A label interned after the freeze exercises the new-label path.
			nodeLabels = append(nodeLabels, syms.Intern("late-label"))

			m := newDeltaModel(base)
			cur := base
			for step := 0; step < 12; step++ {
				ops := m.randBatch(rng, nodeLabels, edgeLabels)
				next, err := cur.ApplyDelta(ops)
				if err != nil {
					t.Fatalf("step %d: ApplyDelta: %v", step, err)
				}
				want := m.rebuild()
				compareGraphs(t, fmt.Sprintf("step %d overlay", step), next, want)
				if step%4 == 3 {
					compact := next.CompactCopy()
					compareGraphs(t, fmt.Sprintf("step %d compacted", step), compact, want)
					// Keep mining the overlay stack rather than restarting
					// from the compacted copy — deeper stacks, harder test.
				}
				cur = next
			}
		})
	}
}
