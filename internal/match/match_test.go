package match_test

import (
	. "gpar/internal/match"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/pattern"
	"gpar/internal/sketch"
)

func ids(vs ...graph.NodeID) []graph.NodeID {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

func sorted(vs []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestQ1MatchSetOnG1 pins Example 3 of the paper: Q1(x, G1) includes
// cust1-cust3 and cust5.
func TestQ1MatchSetOnG1(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	r1 := gen.R1(syms)
	got := sorted(MatchSet(r1.Q, f.G, nil, Options{}))
	want := ids(f.Cust[1], f.Cust[2], f.Cust[3], f.Cust[5])
	if !equalIDs(got, want) {
		t.Errorf("Q1(x,G1) = %v want %v", got, want)
	}
}

// TestPR1MatchSetOnG1 pins Example 5: supp(R1,G1) = 3 via matches
// cust1-cust3.
func TestPR1MatchSetOnG1(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	r1 := gen.R1(syms)
	got := sorted(MatchSet(r1.PR(), f.G, nil, Options{}))
	want := ids(f.Cust[1], f.Cust[2], f.Cust[3])
	if !equalIDs(got, want) {
		t.Errorf("PR1(x,G1) = %v want %v", got, want)
	}
}

// TestFig3RuleMatchSets pins Example 8/9: the match sets of R5-R8 on G1.
func TestFig3RuleMatchSets(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	cases := []struct {
		name string
		pr   *pattern.Pattern
		want []graph.NodeID
	}{
		{"R5", gen.R5(syms).PR(), ids(f.Cust[1], f.Cust[2], f.Cust[3], f.Cust[4])},
		{"R6", gen.R6(syms).PR(), ids(f.Cust[4], f.Cust[6])},
		{"R7", gen.R7(syms).PR(), ids(f.Cust[1], f.Cust[2], f.Cust[3])},
		{"R8", gen.R8(syms).PR(), ids(f.Cust[6])},
	}
	for _, c := range cases {
		got := sorted(MatchSet(c.pr, f.G, nil, Options{}))
		if !equalIDs(got, c.want) {
			t.Errorf("%s(x,G1) = %v want %v", c.name, got, c.want)
		}
	}
}

// TestQ4OnG2 pins Example 5 for G2: supp(Q4,G2) = supp(R4,G2) = 3 with
// matches acct1-acct3.
func TestQ4OnG2(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G2(syms)
	r4 := gen.R4(syms)
	want := ids(f.Acct[1], f.Acct[2], f.Acct[3])
	if got := sorted(MatchSet(r4.Q, f.G, nil, Options{})); !equalIDs(got, want) {
		t.Errorf("Q4(x,G2) = %v want %v", got, want)
	}
	if got := sorted(MatchSet(r4.PR(), f.G, nil, Options{})); !equalIDs(got, want) {
		t.Errorf("PR4(x,G2) = %v want %v", got, want)
	}
}

func TestHasMatchAtAnchoring(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	r1 := gen.R1(syms)
	if !HasMatchAt(r1.Q, f.G, f.Cust[5], Options{}) {
		t.Error("cust5 should match Q1")
	}
	if HasMatchAt(r1.Q, f.G, f.Cust[4], Options{}) {
		t.Error("cust4 should not match Q1 (no live_in edge)")
	}
	if HasMatchAt(r1.Q, f.G, f.NY, Options{}) {
		t.Error("a city node cannot match x (label mismatch)")
	}
}

func TestGuidedSearchAgreesWithUnguided(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	ix := sketch.NewIndex(f.G, 2)
	for _, r := range []*pattern.Pattern{gen.R1(syms).PR(), gen.R5(syms).PR(), gen.R6(syms).PR(), gen.R7(syms).PR(), gen.R8(syms).PR()} {
		plain := sorted(MatchSet(r, f.G, nil, Options{}))
		guided := sorted(MatchSet(r, f.G, nil, Options{Guided: true, Sketches: ix}))
		if !equalIDs(plain, guided) {
			t.Errorf("guided and unguided disagree: %v vs %v for %s", guided, plain, r)
		}
	}
}

func TestEnumerateCountsAllEmbeddings(t *testing.T) {
	// Triangle of identical labels: pattern a->a has 3 embeddings in a
	// 3-cycle.
	g := graph.New(nil)
	a := g.AddNode("a")
	b := g.AddNode("a")
	c := g.AddNode("a")
	g.AddEdge(a, b, "e")
	g.AddEdge(b, c, "e")
	g.AddEdge(c, a, "e")

	p := pattern.New(g.Symbols())
	u := p.AddNode("a")
	v := p.AddNode("a")
	p.AddEdge(u, v, "e")
	p.X = u

	n := Enumerate(p, g, Options{}, nil)
	if n != 3 {
		t.Errorf("Enumerate = %d embeddings, want 3", n)
	}
	// The full 3-cycle pattern has 3 automorphic embeddings.
	p2 := pattern.New(g.Symbols())
	x := p2.AddNode("a")
	y := p2.AddNode("a")
	z := p2.AddNode("a")
	p2.AddEdge(x, y, "e")
	p2.AddEdge(y, z, "e")
	p2.AddEdge(z, x, "e")
	p2.X = x
	if n := Enumerate(p2, g, Options{}, nil); n != 3 {
		t.Errorf("cycle pattern: %d embeddings, want 3", n)
	}
}

func TestEnumerateMaxMatches(t *testing.T) {
	g := graph.New(nil)
	hub := g.AddNode("h")
	for i := 0; i < 10; i++ {
		leaf := g.AddNode("l")
		g.AddEdge(hub, leaf, "e")
	}
	p := pattern.New(g.Symbols())
	u := p.AddNode("h")
	v := p.AddNode("l")
	p.AddEdge(u, v, "e")
	p.X = u
	if n := Enumerate(p, g, Options{MaxMatches: 4}, nil); n != 4 {
		t.Errorf("MaxMatches: got %d want 4", n)
	}
	if n := Enumerate(p, g, Options{}, nil); n != 10 {
		t.Errorf("unlimited: got %d want 10", n)
	}
}

func TestEnumerateEarlyStopCallback(t *testing.T) {
	g := graph.New(nil)
	hub := g.AddNode("h")
	for i := 0; i < 10; i++ {
		leaf := g.AddNode("l")
		g.AddEdge(hub, leaf, "e")
	}
	p := pattern.New(g.Symbols())
	u := p.AddNode("h")
	v := p.AddNode("l")
	p.AddEdge(u, v, "e")
	seen := 0
	Enumerate(p, g, Options{}, func([]graph.NodeID) bool {
		seen++
		return seen < 3
	})
	if seen != 3 {
		t.Errorf("callback stop: saw %d want 3", seen)
	}
}

func TestInjectivity(t *testing.T) {
	// Pattern wants two distinct 'l' children; data has only one.
	g := graph.New(nil)
	hub := g.AddNode("h")
	leaf := g.AddNode("l")
	g.AddEdge(hub, leaf, "e")

	p := pattern.New(g.Symbols())
	u := p.AddNode("h")
	v1 := p.AddNode("l")
	v2 := p.AddNode("l")
	p.AddEdge(u, v1, "e")
	p.AddEdge(u, v2, "e")
	p.X = u
	if HasMatchAt(p, g, hub, Options{}) {
		t.Error("match found despite injectivity violation")
	}
	g2 := g.Clone() // g's build phase ended at the first match
	g2.AddEdge(hub, g2.AddNode("l"), "e")
	if !HasMatchAt(p, g2, hub, Options{}) {
		t.Error("match not found with two distinct leaves")
	}
}

func TestEdgeLabelAndDirectionRespected(t *testing.T) {
	g := graph.New(nil)
	a := g.AddNode("a")
	b := g.AddNode("b")
	g.AddEdge(a, b, "x")

	p := pattern.New(g.Symbols())
	u := p.AddNode("a")
	v := p.AddNode("b")
	p.AddEdge(u, v, "y") // wrong label
	p.X = u
	if HasMatchAt(p, g, a, Options{}) {
		t.Error("matched with wrong edge label")
	}
	q := pattern.New(g.Symbols())
	w := q.AddNode("a")
	z := q.AddNode("b")
	q.AddEdge(z, w, "x") // wrong direction
	q.X = w
	if HasMatchAt(q, g, a, Options{}) {
		t.Error("matched with reversed edge")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Q with an isolated y component: x matches iff an unused y-labeled
	// node exists anywhere.
	g := graph.New(nil)
	a := g.AddNode("a")
	g.AddNode("b")

	p := pattern.New(g.Symbols())
	u := p.AddNode("a")
	v := p.AddNode("b")
	p.X, p.Y = u, v
	// no edges: v is isolated
	if !HasMatchAt(p, g, a, Options{}) {
		t.Error("isolated y should match any b node")
	}
	// Without any b node, no match.
	g2 := graph.New(nil)
	a2 := g2.AddNode("a")
	p2 := pattern.New(g2.Symbols())
	u2 := p2.AddNode("a")
	v2 := p2.AddNode("b")
	p2.X, p2.Y = u2, v2
	if HasMatchAt(p2, g2, a2, Options{}) {
		t.Error("matched despite missing b node")
	}
}

func TestMultiplicityExpansionInMatching(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	// Pattern: x likes k French restaurants. k=3 matches cust1-3,5,6;
	// k=4 matches nobody.
	for k, wantLen := range map[int]int{3: 5, 4: 0} {
		p := pattern.New(syms)
		x := p.AddNode(gen.LCust)
		fr := p.AddNode(gen.LFrench)
		p.SetMult(fr, k)
		p.AddEdge(x, fr, gen.ELike)
		p.X = x
		got := MatchSet(p, f.G, nil, Options{})
		if len(got) != wantLen {
			t.Errorf("k=%d: %d matches want %d (%v)", k, len(got), wantLen, got)
		}
	}
}

func TestMinImageSupport(t *testing.T) {
	g := graph.New(nil)
	hub := g.AddNode("h")
	for i := 0; i < 5; i++ {
		leaf := g.AddNode("l")
		g.AddEdge(hub, leaf, "e")
	}
	p := pattern.New(g.Symbols())
	u := p.AddNode("h")
	v := p.AddNode("l")
	p.AddEdge(u, v, "e")
	p.X = u
	// 5 embeddings; hub image count 1, leaf image count 5 => min image 1.
	if got := MinImageSupport(p, g, Options{}); got != 1 {
		t.Errorf("MinImageSupport = %d want 1", got)
	}
	sets := ImageSets(p, g, Options{})
	if len(sets[0]) != 1 || len(sets[1]) != 5 {
		t.Errorf("ImageSets = %d,%d want 1,5", len(sets[0]), len(sets[1]))
	}
	// Empty pattern has no image sets.
	if got := MinImageSupport(pattern.New(g.Symbols()), g, Options{}); got != 0 {
		t.Errorf("empty pattern MinImageSupport = %d want 0", got)
	}
}

// TestQuickMatchSetSubsetOfCandidates checks MatchSet only returns
// candidates and HasMatchAt agrees pointwise with membership.
func TestQuickMatchSetConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := []string{"a", "b", "c"}
		n := 12 + rng.Intn(10)
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(3)])
		}
		for i := 0; i < 2*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "e")
		}
		p := pattern.New(g.Symbols())
		x := p.AddNode("a")
		y := p.AddNode(labels[rng.Intn(3)])
		z := p.AddNode(labels[rng.Intn(3)])
		p.AddEdge(x, y, "e")
		p.AddEdge(y, z, "e")
		p.X = x

		ms := MatchSet(p, g, nil, Options{})
		inMS := map[graph.NodeID]bool{}
		for _, v := range ms {
			inMS[v] = true
		}
		for _, v := range g.NodesWithLabel(g.Symbols().Lookup("a")) {
			if HasMatchAt(p, g, v, Options{}) != inMS[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickGuidedEquivalence: guided search never changes the match set.
func TestQuickGuidedEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := []string{"a", "b", "c"}
		n := 10 + rng.Intn(10)
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(3)])
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), []string{"e", "f"}[rng.Intn(2)])
		}
		p := pattern.New(g.Symbols())
		x := p.AddNode("a")
		y := p.AddNode(labels[rng.Intn(3)])
		p.AddEdge(x, y, "e")
		z := p.AddNode(labels[rng.Intn(3)])
		p.AddEdge(z, y, "f")
		p.X = x

		ix := sketch.NewIndex(g, 2)
		plain := sorted(MatchSet(p, g, nil, Options{}))
		guided := sorted(MatchSet(p, g, nil, Options{Guided: true, Sketches: ix}))
		return equalIDs(plain, guided)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickAntiMonotoneSupport: adding an edge to a pattern never enlarges
// its match set — the anti-monotonicity that Section 3's support measure is
// chosen for.
func TestQuickAntiMonotoneSupport(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(nil)
		labels := []string{"a", "b"}
		n := 10 + rng.Intn(8)
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(2)])
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "e")
		}
		p := pattern.New(g.Symbols())
		x := p.AddNode("a")
		y := p.AddNode(labels[rng.Intn(2)])
		p.AddEdge(x, y, "e")
		p.X = x
		before := len(MatchSet(p, g, nil, Options{}))
		q := p.Apply(pattern.Extension{
			Src:       rng.Intn(p.NumNodes()),
			Outgoing:  rng.Intn(2) == 0,
			EdgeLabel: g.Symbols().Intern("e"),
			NewLabel:  g.Symbols().Intern(labels[rng.Intn(2)]),
			Close:     pattern.NoNode,
		})
		after := len(MatchSet(q, g, nil, Options{}))
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
