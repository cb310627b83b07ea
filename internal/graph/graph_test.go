package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSymbolsIntern(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("cust")
	b := s.Intern("visit")
	if a == b {
		t.Fatalf("distinct names interned to same label %d", a)
	}
	if got := s.Intern("cust"); got != a {
		t.Errorf("re-intern: got %d want %d", got, a)
	}
	if got := s.Name(a); got != "cust" {
		t.Errorf("Name(%d) = %q want %q", a, got, "cust")
	}
	if got := s.Lookup("missing"); got != NoLabel {
		t.Errorf("Lookup(missing) = %d want NoLabel", got)
	}
	if got := s.Name(NoLabel); got != "" {
		t.Errorf("Name(NoLabel) = %q want empty", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d want 2", s.Len())
	}
}

func TestAddNodeEdge(t *testing.T) {
	g := New(nil)
	a := g.AddNode("cust")
	b := g.AddNode("restaurant")
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d want 2", g.NumNodes())
	}
	if !g.AddEdge(a, b, "visit") {
		t.Fatal("AddEdge returned false for new edge")
	}
	if g.AddEdge(a, b, "visit") {
		t.Error("AddEdge returned true for duplicate edge")
	}
	if !g.AddEdge(a, b, "like") {
		t.Error("AddEdge returned false for parallel edge with new label")
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d want 2", g.NumEdges())
	}
	if g.Size() != 4 {
		t.Errorf("Size = %d want 4", g.Size())
	}
	visit := g.Symbols().Lookup("visit")
	if !g.HasEdge(a, b, visit) {
		t.Error("HasEdge(a,b,visit) = false")
	}
	if g.HasEdge(b, a, visit) {
		t.Error("HasEdge(b,a,visit) = true; edges are directed")
	}
}

func TestLabelIndex(t *testing.T) {
	g := New(nil)
	c1 := g.AddNode("cust")
	g.AddNode("city")
	c2 := g.AddNode("cust")
	c3 := g.AddNode("cust")
	cust := g.Symbols().Lookup("cust")
	got := g.NodesWithLabel(cust)
	want := []NodeID{c1, c2, c3}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NodesWithLabel(cust) = %v want %v", got, want)
	}
	if got := g.NodesWithLabel(g.Symbols().Intern("absent")); got != nil {
		t.Errorf("NodesWithLabel(absent) = %v want nil", got)
	}
}

// path builds a directed path v0 -> v1 -> ... -> vn-1 with "e" edges.
func path(n int) (*Graph, []NodeID) {
	g := New(nil)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode("v")
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(ids[i], ids[i+1], "e")
	}
	return g, ids
}

func TestNeighborhood(t *testing.T) {
	g, ids := path(6)
	for r := 0; r < 6; r++ {
		got := g.AppendNeighborhood(nil, ids[0], r)
		want := r + 1
		if want > 6 {
			want = 6
		}
		if len(got) != want {
			t.Errorf("Neighborhood(v0, %d) has %d nodes, want %d", r, len(got), want)
		}
	}
	// Neighborhood is undirected: from the middle both directions count.
	got := g.AppendNeighborhood(nil, ids[3], 1)
	if len(got) != 3 {
		t.Errorf("Neighborhood(v3, 1) = %v want 3 nodes (v2, v3, v4)", got)
	}
	if g.AppendNeighborhood(nil, ids[0], -1) != nil {
		t.Error("Neighborhood with negative radius should be nil")
	}
}

// step is one visit of a walk.
type step struct {
	w     NodeID
	depth int
}

// walk collects g.Walk(v, r) up to and including the visit of stop (none:
// -1), and whether the walk ran to the end.
func walk(g *Graph, v NodeID, r int, stop NodeID) ([]step, bool) {
	var got []step
	done := g.Walk(v, r, func(w NodeID, depth int) bool {
		got = append(got, step{w, depth})
		return w != stop
	})
	return got, done
}

func TestWalk(t *testing.T) {
	// 3 -> 0 -> 1 -> 4 <- 5, 0 -> 2, 6 isolated; one edge label, edges
	// added in ascending target order, so Out and In list ascending IDs.
	g := New(nil)
	for range 7 {
		g.AddNode("v")
	}
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {1, 4}, {3, 0}, {5, 4}} {
		g.AddEdge(e[0], e[1], "e")
	}
	g.Freeze()
	cases := []struct {
		v    NodeID
		r    int
		stop NodeID
		want []step
		done bool
	}{
		{0, -1, -1, nil, true},
		{0, 0, -1, []step{{0, 0}}, true},
		// Out before In at each frontier node, levels in order.
		{0, 2, -1, []step{{0, 0}, {1, 1}, {2, 1}, {3, 1}, {4, 2}}, true},
		{0, 9, -1, []step{{0, 0}, {1, 1}, {2, 1}, {3, 1}, {4, 2}, {5, 3}}, true},
		{4, 2, -1, []step{{4, 0}, {1, 1}, {5, 1}, {0, 2}}, true},
		{6, 3, -1, []step{{6, 0}}, true},
		// An early stop visits nothing more and reports false.
		{0, 2, 2, []step{{0, 0}, {1, 1}, {2, 1}}, false},
		{0, 2, 0, []step{{0, 0}}, false},
	}
	for _, tc := range cases {
		got, done := walk(g, tc.v, tc.r, tc.stop)
		if !reflect.DeepEqual(got, tc.want) || done != tc.done {
			t.Errorf("Walk(%d, %d) stop %d = %v, %v; want %v, %v", tc.v, tc.r, tc.stop, got, done, tc.want, tc.done)
		}
	}
	// Over an overlay: a new edge 6 -> 5 and the deleted 0 -> 2.
	e := g.Symbols().Lookup("e")
	d, err := g.ApplyDelta([]DeltaOp{{Kind: DeltaAddEdge, From: 6, To: 5, Label: e}, {Kind: DeltaDelEdge, From: 0, To: 2, Label: e}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		v    NodeID
		r    int
		want []step
	}{
		{6, 2, []step{{6, 0}, {5, 1}, {4, 2}}},
		{0, 1, []step{{0, 0}, {1, 1}, {3, 1}}},
		{2, 5, []step{{2, 0}}},
	} {
		if got, _ := walk(d, tc.v, tc.r, -1); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("overlay Walk(%d, %d) = %v, want %v", tc.v, tc.r, got, tc.want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := New(nil)
	a := g.AddNode("a")
	b := g.AddNode("b")
	c := g.AddNode("c")
	g.AddEdge(a, b, "ab")
	g.AddEdge(b, c, "bc")
	g.AddEdge(a, c, "ac")

	sub, toLocal, toGlobal := g.InducedSubgraph([]NodeID{a, b})
	if sub.NumNodes() != 2 {
		t.Fatalf("sub nodes = %d want 2", sub.NumNodes())
	}
	if sub.NumEdges() != 1 {
		t.Fatalf("sub edges = %d want 1 (only a->b)", sub.NumEdges())
	}
	if sub.LabelName(toLocal[a]) != "a" || sub.LabelName(toLocal[b]) != "b" {
		t.Error("subgraph node labels wrong")
	}
	if toGlobal[toLocal[a]] != a {
		t.Error("toGlobal does not invert toLocal")
	}
	// Duplicate input nodes are deduplicated.
	sub2, _, _ := g.InducedSubgraph([]NodeID{a, a, b})
	if sub2.NumNodes() != 2 {
		t.Errorf("dup nodes: NumNodes = %d want 2", sub2.NumNodes())
	}
}

func TestClone(t *testing.T) {
	g, ids := path(3)
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	c.AddEdge(ids[2], ids[0], "back")
	if g.NumEdges() == c.NumEdges() {
		t.Error("mutating clone affected original")
	}
}

func TestRoundTripIO(t *testing.T) {
	g := New(nil)
	a := g.AddNode("cust one") // label with a space
	b := g.AddNode(`quote"label`)
	g.AddEdge(a, b, "visit")
	g.AddEdge(b, a, "friend of")

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Read(&buf, nil)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size: got (%d,%d) want (%d,%d)",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	if got.LabelName(0) != "cust one" || got.LabelName(1) != `quote"label` {
		t.Error("round trip labels corrupted")
	}
	visit := got.Symbols().Lookup("visit")
	if !got.HasEdge(0, 1, visit) {
		t.Error("round trip lost edge")
	}
}

// readErrorInputs are malformed graph files; FuzzRead seeds from them too.
var readErrorInputs = []string{
	"n 5 \"a\"",          // non-dense id
	"e 0 1 \"x\"",        // edge before nodes
	"bogus line",         // unknown record
	"n 0 notquoted",      // unquoted label
	"graph one two",      // bad header
	"n 0 \"a\"\ne 0 9 x", // endpoint out of range
	"n\n",                // bare node record
	"graph 1 0\nn\n",     // bare node record after a header
	"n 0 \"a\"\ne",       // bare edge record
}

func TestReadErrors(t *testing.T) {
	for _, c := range readErrorInputs {
		_, err := Read(bytes.NewBufferString(c), nil)
		if err == nil {
			t.Errorf("Read(%q) succeeded, want error", c)
		} else if !strings.HasPrefix(err.Error(), "graph: line ") {
			t.Errorf("Read(%q): error %q names no line", c, err)
		}
	}
	// Header mismatch.
	if _, err := Read(bytes.NewBufferString("graph 2 0\nn 0 \"a\"\n"), nil); err == nil {
		t.Error("Read with wrong node count succeeded")
	}
	// Comments and blank lines are fine.
	if _, err := Read(bytes.NewBufferString("# comment\n\nn 0 \"a\"\n"), nil); err != nil {
		t.Errorf("Read with comment: %v", err)
	}
}

// randomGraph builds a reproducible random graph for property tests.
func randomGraph(rng *rand.Rand, n, e int) *Graph {
	g := New(nil)
	labels := []string{"a", "b", "c", "d"}
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < e; i++ {
		from := NodeID(rng.Intn(n))
		to := NodeID(rng.Intn(n))
		g.AddEdge(from, to, labels[rng.Intn(len(labels))])
	}
	return g
}

func TestQuickNeighborhoodMonotone(t *testing.T) {
	// Property: Nr(v) ⊆ Nr+1(v), and |Nr| is non-decreasing in r.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 40)
		v := NodeID(rng.Intn(20))
		prev := map[NodeID]bool{}
		for r := 0; r <= 4; r++ {
			cur := map[NodeID]bool{}
			for _, u := range g.AppendNeighborhood(nil, v, r) {
				cur[u] = true
			}
			for u := range prev {
				if !cur[u] {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickIORoundTrip(t *testing.T) {
	// Property: serialize/deserialize preserves node labels and all edges.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15, 30)
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			return false
		}
		h, err := Read(&buf, nil)
		if err != nil {
			return false
		}
		if h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < g.NumNodes(); v++ {
			if g.LabelName(NodeID(v)) != h.LabelName(NodeID(v)) {
				return false
			}
			for _, e := range g.Out(NodeID(v)) {
				if !h.HasEdge(NodeID(v), e.To, h.Symbols().Lookup(g.Symbols().Name(e.Label))) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickInducedSubgraphEdges(t *testing.T) {
	// Property: the induced subgraph has exactly the edges with both
	// endpoints inside the node set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 50)
		var nodes []NodeID
		inSet := map[NodeID]bool{}
		for v := 0; v < g.NumNodes(); v++ {
			if rng.Intn(2) == 0 {
				nodes = append(nodes, NodeID(v))
				inSet[NodeID(v)] = true
			}
		}
		sub, toLocal, _ := g.InducedSubgraph(nodes)
		want := 0
		for v := 0; v < g.NumNodes(); v++ {
			if !inSet[NodeID(v)] {
				continue
			}
			for _, e := range g.Out(NodeID(v)) {
				if inSet[e.To] {
					want++
					if !sub.HasEdge(toLocal[NodeID(v)], toLocal[e.To], e.Label) {
						return false
					}
				}
			}
		}
		return sub.NumEdges() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
