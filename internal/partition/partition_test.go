package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/pattern"
)

func TestWhole(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	cands := f.G.NodesWithLabel(syms.Lookup(gen.LCust))
	w := Whole(f.G, cands)
	if w.G != f.G {
		t.Error("Whole should wrap the original graph")
	}
	if len(w.Centers) != 6 {
		t.Errorf("Centers = %d want 6", len(w.Centers))
	}
	if w.Global(w.Centers[0]) != cands[0] {
		t.Error("Whole mapping broken")
	}
	if lv, ok := w.Local(cands[1]); !ok || lv != cands[1] {
		t.Error("Whole Local should be identity")
	}
}

func TestPartitionCoversNeighborhoods(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	cands := f.G.NodesWithLabel(syms.Lookup(gen.LCust))
	const d = 2
	frags := Partition(f.G, cands, 3, d)
	if len(frags) != 3 {
		t.Fatalf("fragments = %d want 3", len(frags))
	}
	// Every candidate owned exactly once.
	owned := map[graph.NodeID]int{}
	for _, fr := range frags {
		for _, c := range fr.Centers {
			owned[fr.Global(c)]++
		}
	}
	if len(owned) != len(cands) {
		t.Errorf("owned %d candidates want %d", len(owned), len(cands))
	}
	for v, n := range owned {
		if n != 1 {
			t.Errorf("candidate %d owned %d times", v, n)
		}
	}
	// Each owned candidate's d-neighborhood is fully inside its fragment.
	for _, fr := range frags {
		for _, c := range fr.Centers {
			gv := fr.Global(c)
			for _, u := range f.G.AppendNeighborhood(nil, gv, d) {
				if _, ok := fr.Local(u); !ok {
					t.Errorf("node %d of Gd(%d) missing from fragment", u, gv)
				}
			}
		}
	}
}

// TestPartitionPreservesAnchoredMatching is the data-locality property the
// paper's algorithms rely on: vx ∈ PR(x,G) iff vx ∈ PR(x,Gd(vx)), so
// matching inside the owning fragment agrees with matching on the whole
// graph for any pattern of radius ≤ d.
func TestPartitionPreservesAnchoredMatching(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	cands := f.G.NodesWithLabel(syms.Lookup(gen.LCust))
	frags := Partition(f.G, cands, 3, 2)
	patterns := []struct {
		name string
		pr   *pattern.Pattern
	}{
		{"R1", gen.R1(syms).PR()},
		{"R5", gen.R5(syms).PR()},
		{"R6", gen.R6(syms).PR()},
		{"R7", gen.R7(syms).PR()},
		{"R8", gen.R8(syms).PR()},
	}
	for _, fr := range frags {
		for _, c := range fr.Centers {
			gv := fr.Global(c)
			for _, pc := range patterns {
				local := match.HasMatchAt(pc.pr, fr.G, c, match.Options{})
				global := match.HasMatchAt(pc.pr, f.G, gv, match.Options{})
				if local != global {
					t.Errorf("%s locality violated at node %d: local %v global %v", pc.name, gv, local, global)
				}
			}
		}
	}
}

func TestPartitionPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Partition(n=0) did not panic")
		}
	}()
	Partition(graph.New(nil), nil, 0, 1)
}

// TestQuickPartitionInvariants: on random graphs, every candidate is owned
// once and its d-neighborhood is present in the owning fragment.
func TestQuickPartitionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := []string{"a", "b"}
		n := 15 + rng.Intn(15)
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(2)])
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "e")
		}
		cands := g.NodesWithLabel(g.Symbols().Lookup("a"))
		d := 1 + rng.Intn(2)
		nf := 1 + rng.Intn(4)
		frags := Partition(g, cands, nf, d)
		ownCount := map[graph.NodeID]int{}
		for _, fr := range frags {
			for _, c := range fr.Centers {
				gv := fr.Global(c)
				ownCount[gv]++
				if fr.G.Label(c) != g.Label(gv) {
					return false
				}
				for _, u := range g.AppendNeighborhood(nil, gv, d) {
					if _, ok := fr.Local(u); !ok {
						return false
					}
				}
			}
		}
		if len(ownCount) != len(cands) {
			return false
		}
		for _, c := range ownCount {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPartitionSpreadsCentersOnDenseGraphs pins the balance the package doc
// promises on the graphs distributed DMine ships: a few dense 2-hop
// neighbourhoods cover the whole graph, so a load measured in distinct nodes
// ties at |V| and would give fragment 0 every later center.
func TestPartitionSpreadsCentersOnDenseGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(*graph.Symbols) *graph.Graph
	}{
		{"gplus-3000", func(s *graph.Symbols) *graph.Graph { return gen.Gplus(s, gen.DefaultGplus(3000, 1)) }},
		{"pokec-3000", func(s *graph.Symbols) *graph.Graph { return gen.Pokec(s, gen.DefaultPokec(3000, 1)) }},
	} {
		syms := graph.NewSymbols()
		g := tc.gen(syms)
		cands := g.NodesWithLabel(syms.Lookup("user"))
		for _, n := range []int{2, 4, 8} {
			largest := 0
			for _, f := range Partition(g, cands, n, 2) {
				largest = max(largest, len(f.Centers))
			}
			if mean := len(cands) / n; largest > 2*mean {
				t.Errorf("%s n=%d: largest fragment owns %d of %d centers, mean %d", tc.name, n, largest, len(cands), mean)
			}
		}
	}
}
