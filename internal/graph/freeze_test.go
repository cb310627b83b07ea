package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFreezePreservesHasEdge(t *testing.T) {
	g := New(nil)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, "e")
	g.AddEdge(a, c, "f")
	g.AddEdge(c, a, "e")
	g.AddEdge(b, c, "e")

	e := g.Symbols().Lookup("e")
	f := g.Symbols().Lookup("f")
	g.Freeze()
	if !g.HasEdge(a, b, e) || !g.HasEdge(a, c, f) || !g.HasEdge(c, a, e) || !g.HasEdge(b, c, e) {
		t.Error("frozen HasEdge lost edges")
	}
	if g.HasEdge(b, a, e) || g.HasEdge(a, b, f) {
		t.Error("frozen HasEdge found phantom edges")
	}
	// Freeze is idempotent.
	g.Freeze()
	if !g.HasEdge(a, b, e) {
		t.Error("second Freeze broke HasEdge")
	}
}

// TestQuickFreezeEquivalence: HasEdge agrees with a scan of the as-built
// adjacency on every (from, to, label) triple, present or absent.
func TestQuickFreezeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15, 60)
		// Record every answer from the insertion-order adjacency.
		type key struct {
			from, to NodeID
			l        Label
		}
		answers := map[key]bool{}
		labels := []Label{1, 2, 3, 4}
		for from := 0; from < g.NumNodes(); from++ {
			for to := 0; to < g.NumNodes(); to++ {
				for _, l := range labels {
					k := key{NodeID(from), NodeID(to), l}
					answers[k] = slices.Contains(g.Out(k.from), Edge{To: k.to, Label: k.l})
				}
			}
		}
		g.Freeze()
		for k, want := range answers {
			if g.HasEdge(k.from, k.to, k.l) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFreezeDoesNotChangeDegreesOrLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 20, 80)
	type snap struct {
		out, in int
		l       Label
	}
	before := make([]snap, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		before[v] = snap{len(g.Out(NodeID(v))), len(g.In(NodeID(v))), g.Label(NodeID(v))}
	}
	g.Freeze()
	for v := 0; v < g.NumNodes(); v++ {
		after := snap{len(g.Out(NodeID(v))), len(g.In(NodeID(v))), g.Label(NodeID(v))}
		if after != before[v] {
			t.Fatalf("node %d changed by Freeze: %+v vs %+v", v, before[v], after)
		}
	}
}

// TestLifecycle: the build phase ends at Freeze and at the first indexed
// read, and a derived graph never has one; AddNode/AddEdge panic from then
// on, and a Clone of any of them is a fresh, independent build phase.
func TestLifecycle(t *testing.T) {
	const e = Label(2) // path interns "v" then "e"
	ends := []struct {
		name string
		end  func(g *Graph) *Graph
	}{
		{"Freeze", func(g *Graph) *Graph { g.Freeze(); return g }},
		{"HasEdge", func(g *Graph) *Graph { g.HasEdge(0, 1, e); return g }},
		{"OutRangeL", func(g *Graph) *Graph { g.OutRangeL(0, e); return g }},
		{"InRangeL", func(g *Graph) *Graph { g.InRangeL(1, e); return g }},
		{"NodesWithLabel", func(g *Graph) *Graph { g.NodesWithLabel(1); return g }},
		{"ApplyDelta", func(g *Graph) *Graph {
			d, err := g.ApplyDelta([]DeltaOp{{Kind: DeltaAddEdge, From: 2, To: 0, Label: e}})
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"CompactCopy", func(g *Graph) *Graph { return g.CompactCopy() }},
	}
	panics := func(f func()) (did bool) {
		defer func() { did = recover() != nil }()
		f()
		return false
	}
	for _, tc := range ends {
		t.Run(tc.name, func(t *testing.T) {
			built, _ := path(3)
			g := tc.end(built)
			if !panics(func() { g.AddNode("v") }) {
				t.Error("AddNode did not panic")
			}
			if !panics(func() { g.AddEdge(2, 0, "f") }) {
				t.Error("AddEdge did not panic")
			}
			nodes, edges := g.NumNodes(), g.NumEdges()
			c := g.Clone()
			v := c.AddNode("v")
			if !c.AddEdge(v, 0, "e") || c.AddEdge(0, 1, "e") {
				t.Error("Clone: AddEdge of a new edge failed, or of a duplicate succeeded")
			}
			if !c.HasEdge(v, 0, e) || !c.HasEdge(1, 2, e) || c.NumNodes() != nodes+1 || c.NumEdges() != edges+1 {
				t.Errorf("Clone after building: %v", c)
			}
			if g.NumNodes() != nodes || g.NumEdges() != edges || len(g.In(0)) != len(c.In(0))-1 {
				t.Errorf("building on the Clone changed the original: %v", g)
			}
		})
	}
}
