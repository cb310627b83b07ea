package graph

import (
	"math/rand"
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

	e := g.Symbols().Lookup("e")
	f := g.Symbols().Lookup("f")
	if g.Frozen() {
		t.Fatal("graph frozen before Freeze")
	}
	g.Freeze()
	if !g.Frozen() {
		t.Fatal("Freeze did not freeze")
	}
	if !g.HasEdge(a, b, e) || !g.HasEdge(a, c, f) || !g.HasEdge(c, a, e) {
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
	// Mutation unfreezes; lookups still work.
	g.AddEdge(b, c, "e")
	if g.Frozen() {
		t.Error("AddEdge left the graph frozen")
	}
	if !g.HasEdge(b, c, e) || !g.HasEdge(a, b, e) {
		t.Error("post-mutation HasEdge wrong")
	}
}

// TestQuickFreezeEquivalence: frozen and unfrozen HasEdge agree on every
// (from, to, label) triple, present or absent.
func TestQuickFreezeEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15, 60)
		// Record every answer unfrozen.
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
					answers[k] = g.HasEdge(k.from, k.to, k.l)
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
