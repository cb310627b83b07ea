package match_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpar/internal/graph"
	. "gpar/internal/match"
	"gpar/internal/pattern"
)

// bruteForceCount enumerates every injective assignment of pattern nodes to
// data nodes and counts the label/edge-preserving ones — an O(n^k) oracle
// for the matcher on tiny inputs.
func bruteForceCount(p *pattern.Pattern, g *graph.Graph) int {
	pe := p.Expand()
	k := pe.NumNodes()
	if k == 0 {
		return 0
	}
	asgn := make([]graph.NodeID, k)
	used := make(map[graph.NodeID]bool)
	count := 0
	var rec func(u int)
	rec = func(u int) {
		if u == k {
			for _, e := range pe.Edges() {
				if !g.HasEdge(asgn[e.From], asgn[e.To], e.Label) {
					return
				}
			}
			count++
			return
		}
		for v := 0; v < g.NumNodes(); v++ {
			dv := graph.NodeID(v)
			if used[dv] || g.Label(dv) != pe.Label(u) {
				continue
			}
			asgn[u] = dv
			used[dv] = true
			rec(u + 1)
			delete(used, dv)
		}
	}
	rec(0)
	return count
}

// TestQuickEnumerateAgainstOracle: the backtracking matcher finds exactly
// the embeddings the brute-force oracle finds, on random tiny instances.
func TestQuickEnumerateAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := []string{"a", "b"}
		n := 4 + rng.Intn(4)
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(2)])
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)),
				[]string{"e", "f"}[rng.Intn(2)])
		}
		p := pattern.New(g.Symbols())
		pn := 2 + rng.Intn(2)
		for i := 0; i < pn; i++ {
			p.AddNode(labels[rng.Intn(2)])
			if i > 0 {
				from, to := rng.Intn(i), i
				if rng.Intn(2) == 0 {
					from, to = to, from
				}
				p.AddEdge(from, to, []string{"e", "f"}[rng.Intn(2)])
			}
		}
		p.X = 0
		want := bruteForceCount(p, g)
		got := Enumerate(p, g, Options{}, nil)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickAnchoredAgainstOracle: EnumerateAnchored(v) counts the oracle's
// embeddings with h(x) = v.
func TestQuickAnchoredAgainstOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := []string{"a", "b"}
		n := 4 + rng.Intn(4)
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(2)])
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "e")
		}
		p := pattern.New(g.Symbols())
		p.AddNode("a")
		p.AddNode(labels[rng.Intn(2)])
		p.AddEdge(0, 1, "e")
		p.X = 0

		total := 0
		for v := 0; v < n; v++ {
			total += EnumerateAnchored(p, g, graph.NodeID(v), Options{}, nil)
		}
		return total == bruteForceCount(p, g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bisectionInstance is a hub "a" with k "b" spokes it points to, of which
// only spokes[target] points back; two more "a" nodes point at that spoke,
// so its in-range outgrows its out-range. The reciprocal pattern x(b) ⇄
// y(a) anchored at the spoke then binds y = hub through the spoke's
// one-entry out-range and checks the closing edge hub → spoke on the hub's
// k-entry range, where the spoke sits at index target. With overlaid, a
// delta adds one more spoke to the hub, so the hub's adjacency is the
// overlay's merged slice (k+1 entries, target still at index target)
// instead of the frozen CSR arena.
func bisectionInstance(k, target int, overlaid bool) (*graph.Graph, *pattern.Pattern, graph.NodeID) {
	g := graph.New(nil)
	hub := g.AddNode("a")
	spokes := make([]graph.NodeID, k)
	for i := range spokes {
		spokes[i] = g.AddNode("b")
		g.AddEdge(hub, spokes[i], "e")
	}
	t := spokes[target]
	g.AddEdge(t, hub, "e")
	for range 2 {
		g.AddEdge(g.AddNode("a"), t, "e")
	}
	p := pattern.New(g.Symbols())
	p.X = p.AddNode("b")
	y := p.AddNode("a")
	p.AddEdge(p.X, y, "e")
	p.AddEdge(y, p.X, "e")
	if overlaid {
		syms, spoke := g.Symbols(), graph.NodeID(g.NumNodes())
		d, err := g.ApplyDelta([]graph.DeltaOp{
			{Kind: graph.DeltaAddNode, Label: syms.Lookup("b")},
			{Kind: graph.DeltaAddEdge, From: hub, To: spoke, Label: syms.Lookup("e")},
		})
		if err != nil {
			panic(err)
		}
		g = d
	}
	return g, p, t
}

// TestClosingEdgeOnLongRangeAgainstOracle: a closing edge whose label range
// is long enough to be bisected (more than 8 entries) is found wherever its
// target sits in the range — the bisection's last probe included — on a
// frozen graph and on an overlaid one whose delta touched the closing
// edge's source. A 9-entry range with the target at index 4 is the shape
// that first exposed a scan that stopped short of that probe.
func TestClosingEdgeOnLongRangeAgainstOracle(t *testing.T) {
	for _, overlaid := range []bool{false, true} {
		for _, k := range []int{9, 10, 16, 17, 40} {
			for target := range k {
				g, p, v := bisectionInstance(k, target, overlaid)
				n := k
				if overlaid {
					n++
				}
				if r := g.OutRangeL(0, g.Symbols().Lookup("e")); g.Overlaid() != overlaid || len(r) != n || r[target].To != v {
					t.Fatalf("overlaid=%v k=%d target=%d: hub's range %v does not hold %d at index %d of %d", overlaid, k, target, r, v, target, n)
				}
				want := bruteForceCount(p, g)
				if want != 1 {
					t.Fatalf("overlaid=%v k=%d target=%d: oracle counts %d embeddings, want 1", overlaid, k, target, want)
				}
				if got := Enumerate(p, g, Options{}, nil); got != want {
					t.Errorf("overlaid=%v k=%d target=%d: Enumerate = %d, oracle %d", overlaid, k, target, got, want)
				}
				if !HasMatchAt(p, g, v, Options{}) {
					t.Errorf("overlaid=%v k=%d target=%d: HasMatchAt(%d) = false, oracle matches", overlaid, k, target, v)
				}
			}
		}
	}
}
