package graph_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
)

// byLabelTo is the frozen adjacency order, written out here so the test
// does not borrow the package's own comparator.
func byLabelTo(a, b graph.Edge) int {
	if a.Label != b.Label {
		return int(a.Label) - int(b.Label)
	}
	return int(a.To) - int(b.To)
}

// sortedRuns returns g's adjacency in one direction as the test's own
// sorted copy of every node's run.
func sortedRuns(g *graph.Graph, adj func(graph.NodeID) []graph.Edge) [][]graph.Edge {
	runs := make([][]graph.Edge, g.NumNodes())
	for v := range runs {
		runs[v] = slices.SortedFunc(slices.Values(adj(graph.NodeID(v))), byLabelTo)
	}
	return runs
}

// TestFromCSRMatchesFreeze: on random graphs with self-loops and parallel
// edges of distinct labels, and on the generators' graphs, the graph
// FromCSR builds from the sorted out-adjacency and the one Freeze builds
// edge by edge agree on every read, and both agree with the as-built
// adjacency sorted by the test: Label, Out, In, Degree, NodesWithLabel, and
// OutRangeL/InRangeL for every node and every label.
func TestFromCSRMatchesFreeze(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"pokec":     gen.Pokec(graph.NewSymbols(), gen.DefaultPokec(300, 1)),
		"gplus":     gen.Gplus(graph.NewSymbols(), gen.DefaultGplus(300, 2)),
		"synthetic": gen.Synthetic(graph.NewSymbols(), 200, 900, 3),
		"empty":     graph.New(nil),
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		n := 1 + rng.Intn(30)
		for range n {
			g.AddNode(string(rune('a' + rng.Intn(4))))
		}
		for range rng.Intn(120) {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), string(rune('p'+rng.Intn(3))))
		}
		graphs[fmt.Sprintf("random-%d", seed)] = g
	}
	for name, g := range graphs {
		wantOut, wantIn := sortedRuns(g, g.Out), sortedRuns(g, g.In)
		labels := make([]graph.Label, g.NumNodes())
		outOff := make([]int32, g.NumNodes()+1)
		var out []graph.Edge
		for v, run := range wantOut {
			labels[v] = g.Label(graph.NodeID(v))
			out = append(out, run...)
			outOff[v+1] = int32(len(out))
		}
		f, err := graph.FromCSR(g.Symbols(), labels, outOff, out)
		if err != nil {
			t.Fatalf("%s: FromCSR: %v", name, err)
		}
		g.Freeze()
		if f.NumNodes() != g.NumNodes() || f.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: FromCSR %v, Freeze %v", name, f, g)
		}
		maxL := graph.Label(g.Symbols().Len() + 1)
		for l := graph.NoLabel; l <= maxL; l++ {
			var want []graph.NodeID
			for v := range labels {
				if labels[v] == l {
					want = append(want, graph.NodeID(v))
				}
			}
			if !slices.Equal(f.NodesWithLabel(l), want) || !slices.Equal(g.NodesWithLabel(l), want) {
				t.Fatalf("%s: NodesWithLabel(%d): FromCSR %v, Freeze %v, want %v", name, l, f.NodesWithLabel(l), g.NodesWithLabel(l), want)
			}
		}
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			if f.Label(v) != g.Label(v) || f.Degree(v) != g.Degree(v) {
				t.Fatalf("%s: node %d: label %d/%d, degree %d/%d", name, v, f.Label(v), g.Label(v), f.Degree(v), g.Degree(v))
			}
			for _, side := range []struct {
				dir        string
				want       []graph.Edge
				fAdj, gAdj []graph.Edge
				fRun, gRun func(graph.NodeID, graph.Label) []graph.Edge
			}{
				{"out", wantOut[v], f.Out(v), g.Out(v), f.OutRangeL, g.OutRangeL},
				{"in", wantIn[v], f.In(v), g.In(v), f.InRangeL, g.InRangeL},
			} {
				if !slices.Equal(side.fAdj, side.want) || !slices.Equal(side.gAdj, side.want) {
					t.Fatalf("%s: node %d %s: FromCSR %v, Freeze %v, want %v", name, v, side.dir, side.fAdj, side.gAdj, side.want)
				}
				for l := graph.NoLabel; l <= maxL; l++ {
					want := slices.DeleteFunc(slices.Clone(side.want), func(e graph.Edge) bool { return e.Label != l })
					if !slices.Equal(side.fRun(v, l), want) || !slices.Equal(side.gRun(v, l), want) {
						t.Fatalf("%s: node %d %s label %d: FromCSR %v, Freeze %v, want %v", name, v, side.dir, l, side.fRun(v, l), side.gRun(v, l), want)
					}
				}
			}
		}
	}
}

// TestFromCSRRejects: every malformed input is an error, never a panic or
// a graph.
func TestFromCSRRejects(t *testing.T) {
	syms := graph.NewSymbols()
	a, b := syms.Intern("a"), syms.Intern("b")
	past := graph.Label(syms.Len() + 1)
	e := func(l graph.Label, to graph.NodeID) graph.Edge { return graph.Edge{To: to, Label: l} }
	for _, tc := range []struct {
		name   string
		labels []graph.Label
		outOff []int32
		out    []graph.Edge
	}{
		{"node label NoLabel", []graph.Label{a, graph.NoLabel}, []int32{0, 0, 0}, nil},
		{"node label past the table", []graph.Label{past}, []int32{0, 0}, nil},
		{"edge label NoLabel", []graph.Label{a, a}, []int32{0, 1, 1}, []graph.Edge{e(graph.NoLabel, 1)}},
		{"edge label past the table", []graph.Label{a, a}, []int32{0, 1, 1}, []graph.Edge{e(past, 1)}},
		{"target past the nodes", []graph.Label{a, a}, []int32{0, 1, 1}, []graph.Edge{e(b, 2)}},
		{"negative target", []graph.Label{a, a}, []int32{0, 1, 1}, []graph.Edge{e(b, -1)}},
		{"duplicate edge", []graph.Label{a, a}, []int32{0, 2, 2}, []graph.Edge{e(b, 1), e(b, 1)}},
		{"descending targets", []graph.Label{a, a}, []int32{0, 2, 2}, []graph.Edge{e(b, 1), e(b, 0)}},
		{"descending labels", []graph.Label{a, a}, []int32{0, 2, 2}, []graph.Edge{e(b, 0), e(a, 1)}},
		{"offsets short of the arena", []graph.Label{a, a}, []int32{0, 1, 1}, []graph.Edge{e(b, 0), e(b, 1)}},
		{"offsets past the arena", []graph.Label{a, a}, []int32{0, 3, 3}, []graph.Edge{e(b, 0), e(b, 1)}},
		{"offsets running backwards", []graph.Label{a, a, a}, []int32{0, 2, 1, 2}, []graph.Edge{e(b, 0), e(b, 1)}},
		{"offsets not from zero", []graph.Label{a, a}, []int32{1, 2, 2}, []graph.Edge{e(b, 0), e(b, 1)}},
		{"one offset too few", []graph.Label{a, a}, []int32{0, 2}, []graph.Edge{e(b, 0), e(b, 1)}},
	} {
		if g, err := graph.FromCSR(syms, tc.labels, tc.outOff, tc.out); err == nil {
			t.Errorf("%s: built %v, want an error", tc.name, g)
		}
	}
}

// FuzzDecodeCSR encodes fuzzed node labels, out-degrees (one byte each, 0
// past the end of degs) and (label, to) edge byte pairs in AppendCSR's
// layout, followed by a tail. DecodeCSR must fail exactly when the arrays
// are not a graph — a label outside the table, a target past the nodes, a
// node's edges out of strict (Label, To) order, degrees not summing to the
// edge count — and otherwise return the tail and what AddEdgeL builds from
// the arrays, its in-adjacency sorted into frozen order here: Freeze itself
// ends in the constructor DecodeCSR uses, so it would be no independent
// reference. A decoded graph re-encodes to the bytes it came from.
func FuzzDecodeCSR(f *testing.F) {
	syms := graph.NewSymbols()
	for _, name := range []string{"cust", "restaurant", "bar", "friend", "visit"} {
		syms.Intern(name) // labels 1 to 5
	}
	for _, seed := range [][3][]byte{
		{{1, 1, 2}, {2, 2}, {4, 1, 5, 2, 4, 0, 4, 2}}, // a graph
		{{1, 1, 2}, {2, 1}, {4, 1, 5, 2, 4, 0}},       // another graph
		{{1, 1, 2}, {2, 1}, {4, 1, 4, 1, 4, 0}},       // duplicate edge
		{{1, 1, 2}, {2, 1}, {5, 2, 4, 1, 4, 0}},       // descending run
		{{1, 0, 2}, {2, 1}, {4, 1, 5, 2, 4, 0}},       // label 0
		{{1, 1, 6}, {2, 1}, {4, 1, 6, 2, 4, 0}},       // labels past the table
		{{1, 1, 2}, {2, 1}, {4, 1, 5, 3, 4, 0}},       // target past the nodes
		{{1, 1, 2}, {2, 2}, {4, 1, 5, 2, 4, 0}},       // degrees sum past the edges
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	inTable := func(l byte) bool { return l != 0 && int(l) <= syms.Len() }
	tail := []byte("tail")
	f.Fuzz(func(t *testing.T, nodes, degs, edges []byte) {
		n, numE := len(nodes), len(edges)/2
		deg := func(v int) int {
			if v < len(degs) {
				return int(degs[v])
			}
			return 0
		}
		le := binary.LittleEndian
		enc := le.AppendUint32(le.AppendUint32(nil, uint32(n)), uint32(numE))
		for _, l := range nodes {
			enc = le.AppendUint32(enc, uint32(l))
		}
		for v := range n {
			enc = le.AppendUint32(enc, uint32(deg(v)))
		}
		for i := range numE {
			enc = le.AppendUint32(le.AppendUint32(enc, uint32(edges[2*i])), uint32(edges[2*i+1]))
		}
		got, rest, err := graph.DecodeCSR(append(enc, tail...), syms)

		// What the arrays mean, checked and built edge by edge.
		want := graph.New(syms)
		valid := true
		for _, l := range nodes {
			valid = valid && inTable(l)
			want.AddNodeL(graph.Label(l))
		}
		i := 0
		for v := range n {
			for k := 0; k < deg(v) && valid; k, i = k+1, i+1 {
				if valid = i < numE && inTable(edges[2*i]) && int(edges[2*i+1]) < n; !valid {
					break
				}
				l, to := edges[2*i], edges[2*i+1]
				valid = k == 0 || l > edges[2*i-2] || l == edges[2*i-2] && to > edges[2*i-1]
				want.AddEdgeL(graph.NodeID(v), graph.NodeID(to), graph.Label(l))
			}
		}
		if valid = valid && i == numE; !valid {
			if err == nil {
				t.Fatalf("malformed arrays decoded to %v", got)
			}
			return
		}
		if err != nil {
			t.Fatalf("a graph's arrays failed to decode: %v", err)
		}
		if !bytes.Equal(rest, tail) {
			t.Fatalf("rest %q, want %q", rest, tail)
		}
		// The re-encoding pins labels and Out: the arrays are in frozen order.
		if re := got.AppendCSR(nil); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", re, enc)
		}
		for l := graph.NoLabel; int(l) <= syms.Len()+1; l++ {
			var nodesL []graph.NodeID
			for v := range n {
				if want.Label(graph.NodeID(v)) == l {
					nodesL = append(nodesL, graph.NodeID(v))
				}
			}
			if !slices.Equal(got.NodesWithLabel(l), nodesL) {
				t.Fatalf("NodesWithLabel(%d) = %v, want %v", l, got.NodesWithLabel(l), nodesL)
			}
		}
		for v := graph.NodeID(0); int(v) < n; v++ {
			if in := slices.SortedFunc(slices.Values(want.In(v)), byLabelTo); !slices.Equal(got.In(v), in) {
				t.Fatalf("node %d: in %v, want %v", v, got.In(v), in)
			}
		}
	})
}
