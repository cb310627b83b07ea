package sketch

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

func star(nLeaves int) (*graph.Graph, graph.NodeID) {
	g := graph.New(nil)
	hub := g.AddNode("h")
	for i := 0; i < nLeaves; i++ {
		leaf := g.AddNode("l")
		g.AddEdge(hub, leaf, "e")
	}
	return g, hub
}

func TestOfStar(t *testing.T) {
	g, hub := star(4)
	sk := Of(g, hub, 2)
	l := g.Symbols().Lookup("l")
	if sk[0][l] != 4 {
		t.Errorf("hop1 l-count = %d want 4", sk[0][l])
	}
	// Cumulative: hop2 includes hop1.
	if sk[1][l] != 4 {
		t.Errorf("hop2 cumulative l-count = %d want 4", sk[1][l])
	}
	// Leaf sees the hub at hop 1 and siblings at hop 2.
	leafSk := Of(g, 1, 2)
	h := g.Symbols().Lookup("h")
	if leafSk[0][h] != 1 || leafSk[0][l] != 0 {
		t.Errorf("leaf hop1 = %v", leafSk[0])
	}
	if leafSk[1][l] != 3 {
		t.Errorf("leaf hop2 cumulative l = %d want 3 siblings", leafSk[1][l])
	}
}

func TestOfUndirected(t *testing.T) {
	// Incoming edges count for the neighborhood too.
	g := graph.New(nil)
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(b, a, "e")
	sk := Of(g, a, 1)
	if sk[0][g.Symbols().Lookup("b")] != 1 {
		t.Error("incoming neighbor missing from sketch")
	}
}

func TestDominatesAndScore(t *testing.T) {
	g, hub := star(4)
	l := g.Symbols().Lookup("l")
	data := Of(g, hub, 2)
	need := Sketch{{l: 2}, {l: 2}}
	s, ok := Score(data, need)
	if !ok {
		t.Fatal("Score infeasible on dominating sketch")
	}
	if s != (4-2)+(4-2) {
		t.Errorf("Score = %d want 4", s)
	}
	needTooMuch := Sketch{{l: 5}}
	if _, ok := Score(data, needTooMuch); ok {
		t.Error("Score feasible despite deficit")
	}
	// Need deeper than data sketch with nonzero requirement fails.
	deep := Sketch{{l: 1}, {l: 1}, {l: 1}}
	short := Sketch{{l: 1}}
	if _, ok := Score(short, deep); ok {
		t.Error("short sketch dominated deeper requirement")
	}
}

func TestOfPattern(t *testing.T) {
	syms := graph.NewSymbols()
	p := pattern.New(syms)
	x := p.AddNode("cust")
	fr := p.AddNode("rest")
	p.SetMult(fr, 3)
	p.AddEdge(x, fr, "like")
	p.X = x
	sk := NewIndex(graph.New(syms), 2).PatternSketches(p)[p.Expand().X]
	rest := syms.Lookup("rest")
	if sk[0][rest] != 3 {
		t.Errorf("pattern hop1 rest = %d want 3 (multiplicity expanded)", sk[0][rest])
	}
	if sk[1][rest] != 3 {
		t.Errorf("pattern hop2 cumulative rest = %d want 3", sk[1][rest])
	}
}

func TestIndexCaching(t *testing.T) {
	g, hub := star(3)
	ix := NewIndex(g, 2)
	_ = ix.Sketch(hub)
	_ = ix.Sketch(hub)
	if len(ix.cache) != 1 {
		t.Errorf("CachedCount = %d want 1", len(ix.cache))
	}
	_ = ix.Sketch(1)
	if len(ix.cache) != 2 {
		t.Errorf("CachedCount = %d want 2", len(ix.cache))
	}
}

func TestIndexConcurrentAccess(t *testing.T) {
	g, _ := star(50)
	ix := NewIndex(g, 2)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func() {
			for v := 0; v < g.NumNodes(); v++ {
				ix.Sketch(graph.NodeID(v))
			}
			done <- true
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if len(ix.cache) != g.NumNodes() {
		t.Errorf("CachedCount = %d want %d", len(ix.cache), g.NumNodes())
	}
}

// TestQuickCumulative: sketches are cumulative (monotone per label across
// hops) and hop-i counts never exceed the total node count.
func TestQuickCumulative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := []string{"a", "b", "c"}
		n := 8 + rng.Intn(12)
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(3)])
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "e")
		}
		v := graph.NodeID(rng.Intn(n))
		sk := Of(g, v, 3)
		for i := 1; i < len(sk); i++ {
			for l, c := range sk[i-1] {
				if sk[i][l] < c {
					return false
				}
			}
		}
		total := 0
		for _, c := range sk[len(sk)-1] {
			total += c
		}
		return total <= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOfMatchesBFS: Of(g, v, k)[i] counts, per label, exactly the nodes at
// undirected distance 1..i+1 from v, against a plain map-based BFS. Sparse
// graphs with isolated nodes cover walks that run out before depth k.
func TestOfMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		g := graph.New(nil)
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			g.AddNode([]string{"a", "b", "c"}[rng.Intn(3)])
		}
		for i := rng.Intn(2 * n); i > 0; i-- {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "e")
		}
		v := graph.NodeID(rng.Intn(n))
		dist := map[graph.NodeID]int{v: 0}
		for queue := []graph.NodeID{v}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			for _, e := range slices.Concat(g.Out(u), g.In(u)) {
				if _, ok := dist[e.To]; !ok {
					dist[e.To] = dist[u] + 1
					queue = append(queue, e.To)
				}
			}
		}
		k := 1 + rng.Intn(4)
		sk := Of(g, v, k)
		if len(sk) != k {
			t.Fatalf("trial %d: %d levels, want %d", trial, len(sk), k)
		}
		for i := range sk {
			want := map[graph.Label]int{}
			for w, d := range dist {
				if d >= 1 && d <= i+1 {
					want[g.Label(w)]++
				}
			}
			if !maps.Equal(sk[i], want) {
				t.Fatalf("trial %d: Of(%d, %d)[%d] = %v, want %v", trial, v, k, i, sk[i], want)
			}
		}
	}
}

// dominates is the reference for Score's feasibility bit, written the way
// Section 5.2 states it: "v' does not match u' if for some i, Di - D'i < 0".
func dominates(s, need Sketch) bool {
	for i := range need {
		var have map[graph.Label]int
		if i < len(s) {
			have = s[i]
		}
		for l, want := range need[i] {
			if have[l] < want {
				return false
			}
		}
	}
	return true
}

// TestQuickScoreDominatesAgree: Score calls a candidate feasible exactly
// when its sketch dominates the pattern's at every hop — the property guided
// search relies on for pruning.
func TestQuickScoreDominatesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() Sketch {
			s := make(Sketch, 2)
			for i := range s {
				s[i] = map[graph.Label]int{}
				for l := graph.Label(1); l <= 3; l++ {
					s[i][l] = rng.Intn(4)
				}
			}
			// ensure cumulative
			for l := graph.Label(1); l <= 3; l++ {
				if s[1][l] < s[0][l] {
					s[1][l] = s[0][l]
				}
			}
			return s
		}
		a, b := mk(), mk()
		_, ok := Score(a, b)
		return ok == dominates(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
