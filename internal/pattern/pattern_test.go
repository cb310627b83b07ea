package pattern

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpar/internal/graph"
)

// buildQ1 constructs pattern Q1 of Fig. 1(a): customers x, x' who are
// friends, live in the same city, both like 3 French restaurants in that
// city, and x' visits French restaurant y in the city.
func buildQ1(syms *graph.Symbols) *Pattern {
	p := New(syms)
	x := p.AddNode("cust")
	x2 := p.AddNode("cust")
	city := p.AddNode("city")
	fr3 := p.AddNode("French restaurant")
	p.SetMult(fr3, 3)
	y := p.AddNode("French restaurant")
	p.X, p.Y = x, y
	p.AddEdge(x, x2, "friend")
	p.AddEdge(x2, x, "friend")
	p.AddEdge(x, city, "live_in")
	p.AddEdge(x2, city, "live_in")
	p.AddEdge(x, fr3, "like")
	p.AddEdge(x2, fr3, "like")
	p.AddEdge(fr3, city, "in")
	p.AddEdge(y, city, "in")
	p.AddEdge(x2, y, "visit")
	return p
}

func TestBasicAccessors(t *testing.T) {
	p := New(nil)
	a := p.AddNode("cust")
	b := p.AddNode("city")
	p.AddEdge(a, b, "live_in")
	if p.NumNodes() != 2 || p.NumEdges() != 1 || p.Size() != 3 {
		t.Fatalf("sizes wrong: %d nodes %d edges", p.NumNodes(), p.NumEdges())
	}
	if p.LabelName(a) != "cust" {
		t.Errorf("LabelName = %q", p.LabelName(a))
	}
	live := p.Symbols().Lookup("live_in")
	if !p.HasEdge(a, b, live) {
		t.Error("HasEdge missed added edge")
	}
	// Duplicate edges are ignored.
	p.AddEdge(a, b, "live_in")
	if p.NumEdges() != 1 {
		t.Errorf("duplicate edge added: %d edges", p.NumEdges())
	}
}

func TestExpandMultiplicity(t *testing.T) {
	p := buildQ1(nil)
	e := p.Expand()
	// Q1 has 5 declared nodes, one with multiplicity 3 => 7 expanded nodes.
	if e.NumNodes() != 7 {
		t.Fatalf("expanded nodes = %d want 7", e.NumNodes())
	}
	// Each copy keeps the incident edges: like(x,fr), like(x',fr), in(fr,city)
	// for each of the 3 copies => edges grow from 9 to 9 - 3 + 3*3 = 15.
	if e.NumEdges() != 15 {
		t.Errorf("expanded edges = %d want 15", e.NumEdges())
	}
	if e.Mult(5) != 1 {
		t.Error("expanded pattern still has multiplicities")
	}
	// Designated nodes survive expansion.
	if e.LabelName(e.X) != "cust" || e.LabelName(e.Y) != "French restaurant" {
		t.Errorf("designated labels: x=%q y=%q", e.LabelName(e.X), e.LabelName(e.Y))
	}
	// A pattern with no multiplicities expands to itself.
	q := New(nil)
	q.AddNode("a")
	if q.Expand() != q {
		t.Error("Expand copied a pattern with no multiplicities")
	}
	// Designated nodes are never expanded even if annotated.
	r := New(nil)
	n := r.AddNode("a")
	r.X = n
	r.SetMult(n, 5)
	if r.Expand().NumNodes() != 1 {
		t.Error("designated node was expanded")
	}
}

func TestConnectedAndRadius(t *testing.T) {
	p := buildQ1(nil)
	if !p.Connected() {
		t.Error("Q1 should be connected")
	}
	if r := p.RadiusAt(p.X); r != 2 {
		t.Errorf("r(Q1, x) = %d want 2", r)
	}
	// Disconnected pattern.
	q := New(nil)
	q.AddNode("a")
	q.AddNode("b")
	if q.Connected() {
		t.Error("two isolated nodes reported connected")
	}
	if q.RadiusAt(0) != -1 {
		t.Error("radius of disconnected pattern should be -1")
	}
	// Empty pattern is connected by convention.
	if !New(nil).Connected() {
		t.Error("empty pattern should be connected")
	}
}

func TestDistancesFrom(t *testing.T) {
	p := New(nil)
	a := p.AddNode("a")
	b := p.AddNode("b")
	c := p.AddNode("c")
	p.AddEdge(a, b, "e")
	p.AddEdge(c, b, "e") // direction ignored for distance
	d := p.DistancesFrom(a)
	if d[a] != 0 || d[b] != 1 || d[c] != 2 {
		t.Errorf("distances = %v", d)
	}
	if d := p.DistancesFrom(-1); d[0] != -1 {
		t.Error("out-of-range source should yield all -1")
	}
}

func TestIsomorphicTo(t *testing.T) {
	syms := graph.NewSymbols()
	p := buildQ1(syms)
	// Same pattern built with nodes in a different order.
	q := New(syms)
	y := q.AddNode("French restaurant")
	city := q.AddNode("city")
	x2 := q.AddNode("cust")
	x := q.AddNode("cust")
	fr3 := q.AddNode("French restaurant")
	q.SetMult(fr3, 3)
	q.X, q.Y = x, y
	q.AddEdge(x, x2, "friend")
	q.AddEdge(x2, x, "friend")
	q.AddEdge(x, city, "live_in")
	q.AddEdge(x2, city, "live_in")
	q.AddEdge(x, fr3, "like")
	q.AddEdge(x2, fr3, "like")
	q.AddEdge(fr3, city, "in")
	q.AddEdge(y, city, "in")
	q.AddEdge(x2, y, "visit")

	if !p.IsomorphicTo(q) {
		t.Error("reordered Q1 not recognized as isomorphic")
	}
	if p.Signature() != q.Signature() {
		t.Error("isomorphic patterns have different signatures")
	}
	// Dropping one edge breaks isomorphism.
	r := q.Clone()
	r.edges = r.edges[:len(r.edges)-1]
	if p.IsomorphicTo(r) {
		t.Error("patterns with different edge counts reported isomorphic")
	}
	// Swapping the designated node breaks it: x must map to x.
	s := q.Clone()
	s.Y = NoNode
	if p.IsomorphicTo(s) {
		t.Error("pattern without y reported isomorphic to pattern with y")
	}
}

func TestIsomorphismRespectsDirection(t *testing.T) {
	syms := graph.NewSymbols()
	p := New(syms)
	a := p.AddNode("a")
	b := p.AddNode("b")
	p.AddEdge(a, b, "e")
	p.X = a

	q := New(syms)
	c := q.AddNode("a")
	d := q.AddNode("b")
	q.AddEdge(d, c, "e") // reversed
	q.X = c

	if p.IsomorphicTo(q) {
		t.Error("direction-reversed patterns reported isomorphic")
	}
}

func TestApplyExtensionForward(t *testing.T) {
	syms := graph.NewSymbols()
	p := New(syms)
	x := p.AddNode("cust")
	p.X = x
	ext := Extension{
		Src:       x,
		Outgoing:  true,
		EdgeLabel: syms.Intern("friend"),
		NewLabel:  syms.Intern("cust"),
		Close:     NoNode,
	}
	q := p.Apply(ext)
	if q == nil {
		t.Fatal("Apply returned nil")
	}
	if q.NumNodes() != 2 || q.NumEdges() != 1 {
		t.Fatalf("extended pattern: %d nodes %d edges", q.NumNodes(), q.NumEdges())
	}
	if p.NumNodes() != 1 {
		t.Error("Apply mutated the original pattern")
	}
	// Incoming direction.
	r := p.Apply(Extension{Src: x, Outgoing: false, EdgeLabel: syms.Intern("follows"), NewLabel: syms.Intern("cust"), Close: NoNode})
	if r.Edges()[0].To != x {
		t.Error("incoming extension should point at Src")
	}
}

func TestApplyExtensionAsY(t *testing.T) {
	syms := graph.NewSymbols()
	p := New(syms)
	x := p.AddNode("cust")
	p.X = x
	ext := Extension{
		Src:       x,
		Outgoing:  true,
		EdgeLabel: syms.Intern("visit"),
		NewLabel:  syms.Intern("restaurant"),
		Close:     NoNode,
		AsY:       true,
	}
	q := p.Apply(ext)
	if q.Y == NoNode {
		t.Fatal("AsY extension did not set Y")
	}
	if q.LabelName(q.Y) != "restaurant" {
		t.Errorf("y label = %q", q.LabelName(q.Y))
	}
	// AsY is rejected when the pattern already has y.
	if q.Apply(ext) != nil {
		t.Error("AsY applied twice")
	}
}

func TestApplyExtensionClose(t *testing.T) {
	syms := graph.NewSymbols()
	p := New(syms)
	a := p.AddNode("a")
	b := p.AddNode("b")
	p.AddEdge(a, b, "e")
	q := p.Apply(Extension{Src: b, Outgoing: true, EdgeLabel: syms.Intern("back"), Close: a})
	if q == nil {
		t.Fatal("closing extension failed")
	}
	if q.NumNodes() != 2 || q.NumEdges() != 2 {
		t.Fatalf("closed pattern: %d nodes %d edges", q.NumNodes(), q.NumEdges())
	}
	// Closing an edge that already exists yields nil.
	if q.Apply(Extension{Src: b, Outgoing: true, EdgeLabel: syms.Intern("back"), Close: a}) != nil {
		t.Error("duplicate closing edge applied")
	}
	// Out-of-range source yields nil.
	if p.Apply(Extension{Src: 99, Outgoing: true, EdgeLabel: 1, Close: NoNode, NewLabel: 1}) != nil {
		t.Error("out-of-range Src applied")
	}
}

func TestExtensionKeyUniqueness(t *testing.T) {
	e1 := Extension{Src: 0, Outgoing: true, EdgeLabel: 1, NewLabel: 2, Close: NoNode}
	e2 := Extension{Src: 0, Outgoing: false, EdgeLabel: 1, NewLabel: 2, Close: NoNode}
	e3 := Extension{Src: 0, Outgoing: true, EdgeLabel: 1, NewLabel: 2, Close: 1}
	keys := map[Extension]bool{e1: true, e2: true, e3: true}
	if len(keys) != 3 || e1.Compare(e2) == 0 || e1.Compare(e3) == 0 || e2.Compare(e3) == 0 {
		t.Errorf("extension keys collide: %v", keys)
	}
}

// randomPattern builds a connected random pattern for property tests.
func randomPattern(rng *rand.Rand, syms *graph.Symbols, n int) *Pattern {
	p := New(syms)
	labels := []string{"a", "b", "c"}
	elabels := []string{"e", "f"}
	for i := 0; i < n; i++ {
		p.AddNode(labels[rng.Intn(len(labels))])
		if i > 0 {
			// Attach to a random earlier node to stay connected.
			prev := rng.Intn(i)
			if rng.Intn(2) == 0 {
				p.AddEdge(prev, i, elabels[rng.Intn(2)])
			} else {
				p.AddEdge(i, prev, elabels[rng.Intn(2)])
			}
		}
	}
	p.X = 0
	return p
}

// shufflePattern returns an isomorphic copy with node indexes and the edge
// order permuted.
func shufflePattern(rng *rand.Rand, p *Pattern) *Pattern {
	n := p.NumNodes()
	perm := rng.Perm(n)
	q := New(p.Symbols())
	inv := make([]int, n)
	for newIdx, oldIdx := range perm {
		inv[oldIdx] = newIdx
	}
	// Add nodes in permuted order.
	ordered := make([]graph.Label, n)
	for old := 0; old < n; old++ {
		ordered[inv[old]] = p.Label(old)
	}
	for _, l := range ordered {
		q.AddNodeL(l)
	}
	for old := 0; old < n; old++ {
		q.SetMult(inv[old], p.Mult(old))
	}
	for _, i := range rng.Perm(p.NumEdges()) {
		e := p.Edges()[i]
		q.AddEdgeL(inv[e.From], inv[e.To], e.Label)
	}
	if p.X != NoNode {
		q.X = inv[p.X]
	}
	if p.Y != NoNode {
		q.Y = inv[p.Y]
	}
	return q
}

func TestQuickIsomorphismUnderPermutation(t *testing.T) {
	// Property: a pattern is always isomorphic to any node-permuted copy,
	// and the signatures agree.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		syms := graph.NewSymbols()
		p := randomPattern(rng, syms, 2+rng.Intn(5))
		q := shufflePattern(rng, p)
		return p.IsomorphicTo(q) && p.Signature() == q.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickExtensionGrowsByOne(t *testing.T) {
	// Property: a forward extension adds exactly one node and one edge, and
	// keeps the original's nodes and edges where they were.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		syms := graph.NewSymbols()
		p := randomPattern(rng, syms, 1+rng.Intn(4))
		ext := Extension{
			Src:       rng.Intn(p.NumNodes()),
			Outgoing:  rng.Intn(2) == 0,
			EdgeLabel: syms.Intern("e"),
			NewLabel:  syms.Intern("a"),
			Close:     NoNode,
		}
		q := p.Apply(ext)
		if q == nil {
			return false
		}
		for u := 0; u < p.NumNodes(); u++ {
			if p.Label(u) != q.Label(u) {
				return false
			}
		}
		for _, e := range p.Edges() {
			if !q.HasEdge(e.From, e.To, e.Label) {
				return false
			}
		}
		return q.NumNodes() == p.NumNodes()+1 && q.NumEdges() == p.NumEdges()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickRadiusMonotoneUnderExtension(t *testing.T) {
	// Property: extending with a forward edge never decreases the radius at
	// x, and increases it by at most 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		syms := graph.NewSymbols()
		p := randomPattern(rng, syms, 1+rng.Intn(5))
		r0 := p.RadiusAt(p.X)
		q := p.Apply(Extension{
			Src:       rng.Intn(p.NumNodes()),
			Outgoing:  true,
			EdgeLabel: syms.Intern("e"),
			NewLabel:  syms.Intern("b"),
			Close:     NoNode,
		})
		r1 := q.RadiusAt(q.X)
		return r1 >= r0 && r1 <= r0+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	p := buildQ1(nil)
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
	for _, want := range []string{"cust", "friend", "(x)", "(y)", "^3"} {
		if !contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
