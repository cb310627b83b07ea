package match_test

import (
	"math/bits"
	"slices"
	"testing"

	"gpar/internal/graph"
	. "gpar/internal/match"
	"gpar/internal/pattern"
)

// filterCase decodes a fuzz input into a data graph, a pattern and its
// PR-style copy (the pattern plus a node y and an edge from x to it, as
// Rule.PRInto builds PR from Q):
//
//	byte 0      data nodes n = 1 + b%24
//	byte 1      pattern nodes pn = 1 + b%5, node 0 is x
//	byte 2      bit 0: serve the graph through a delta overlay; the rest
//	            picks the one pattern node (other than x) of multiplicity 2
//	byte 3      pattern edges = b%9; b/9 picks y's label (a, b or c) and
//	            b/27 the label of the edge from x to y (e or f)
//	n bytes     data node labels (a, b or c)
//	pn bytes    pattern node labels
//	3 per edge  pattern edges (from, to, label e or f)
//	the rest    data edge triples, at most 96
//
// Self-loops, cycles, repeated labels and parallel edges of different
// labels all decode. With the overlay bit, the base graph gets the even
// data edges and a delta batch adds the odd ones, deletes the first base
// edge, relabels a node and adds a node wired to node 0.
func filterCase(data []byte) (*graph.Graph, *pattern.Pattern, *pattern.Pattern) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n, pn, flags, pe := 1+at(0)%24, 1+at(1)%5, at(2), at(3)%9
	names, elabels := []string{"a", "b", "c"}, []string{"e", "f"}
	g := graph.New(nil)
	syms := g.Symbols()
	for _, name := range append(names, elabels...) {
		syms.Intern(name)
	}
	pos := 4
	for v := 0; v < n; v++ {
		g.AddNode(names[at(pos)%3])
		pos++
	}
	p := pattern.New(g.Symbols())
	for u := 0; u < pn; u++ {
		p.AddNode(names[at(pos)%3])
		pos++
	}
	p.X = 0
	if m := (flags >> 1) % pn; m != 0 {
		p.SetMult(m, 2)
	}
	for i := 0; i < pe; i++ {
		p.AddEdge(at(pos)%pn, at(pos+1)%pn, elabels[at(pos+2)%2])
		pos += 3
	}
	pr := p.Clone()
	pr.AddEdge(pr.X, pr.AddNode(names[at(3)/9%3]), elabels[at(3)/27%2])
	type triple struct {
		from, to graph.NodeID
		l        graph.Label
	}
	var odd []triple
	for i := 0; pos+2 < len(data) && i < 96; i++ {
		t := triple{graph.NodeID(at(pos) % n), graph.NodeID(at(pos+1) % n), syms.Lookup(elabels[at(pos+2)%2])}
		pos += 3
		if flags&1 == 0 || i%2 == 0 {
			g.AddEdgeL(t.from, t.to, t.l)
		} else {
			odd = append(odd, t)
		}
	}
	g.Freeze()
	if flags&1 == 0 {
		return g, p, pr
	}
	var ops []graph.DeltaOp
	added := map[triple]bool{}
	for _, t := range odd {
		if !g.HasEdge(t.from, t.to, t.l) && !added[t] {
			added[t] = true
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAddEdge, From: t.from, To: t.to, Label: t.l})
		}
	}
	for v := graph.NodeID(0); int(v) < n; v++ {
		if out := g.Out(v); len(out) > 0 {
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaDelEdge, From: v, To: out[0].To, Label: out[0].Label})
			break
		}
	}
	fresh := graph.NodeID(n)
	ops = append(ops,
		graph.DeltaOp{Kind: graph.DeltaSetLabel, Node: graph.NodeID(flags % n), Label: syms.Lookup(names[flags%3])},
		graph.DeltaOp{Kind: graph.DeltaAddNode, Label: syms.Lookup(names[(flags>>2)%3])},
		graph.DeltaOp{Kind: graph.DeltaAddEdge, From: fresh, To: 0, Label: syms.Lookup("e")},
	)
	d, err := g.ApplyDelta(ops)
	if err != nil {
		panic(err) // the decoder builds only valid batches
	}
	return d, p, pr
}

// checkFilter asserts the filter's contract on one case: Keep holds
// wherever the pattern matches, an un-narrowed filter keeps every node,
// Kept counts the x-labelled nodes Keep admits, a matcher restricted to
// the filter's sets answers HasMatchAt as a plain one does at every node,
// for p and for its PR-style copy pr, an exact filter's Keep is p's
// HasMatchAt at every x-labelled node, and a narrowed S(x) holds
// x-labelled nodes only (gpard's exact walk takes its bits as matches).
func checkFilter(t *testing.T, g *graph.Graph, p, pr *pattern.Pattern) {
	t.Helper()
	f := NewFilter(p, g)
	defer f.Release()
	for _, q := range []*pattern.Pattern{p, pr} {
		plain, restricted := NewMatcher(q, g, Options{}), NewMatcher(q, g, Options{})
		f.Restrict(restricted)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			want := plain.HasMatchAt(v)
			if got := restricted.HasMatchAt(v); got != want {
				t.Fatalf("pattern %v at %d: restricted HasMatchAt = %v, plain %v", q, v, got, want)
			}
			if want && !f.Keep(v) {
				t.Fatalf("pattern %v matches at %d, but the filter drops it", q, v)
			}
			if !f.Narrowed() && !f.Keep(v) {
				t.Fatalf("un-narrowed filter drops %d", v)
			}
			if q == p && f.Exact() && g.Label(v) == p.Label(p.X) && f.Keep(v) != want {
				t.Fatalf("exact filter for %v keeps %d = %v, but HasMatchAt = %v", p, v, f.Keep(v), want)
			}
		}
		restricted.Release()
		plain.Release()
	}
	xs := g.NodesWithLabel(p.Label(p.X))
	for i, w := range f.XSet() {
		for ; w != 0; w &= w - 1 {
			if v := graph.NodeID(i*64 + bits.TrailingZeros64(w)); !slices.Contains(xs, v) {
				t.Fatalf("S(x) of %v holds %d, which is not x-labelled", p, v)
			}
		}
	}
	kept := 0
	for _, v := range xs {
		if f.Keep(v) {
			kept++
		}
	}
	if kept != f.Kept() {
		t.Fatalf("Kept() = %d, but Keep admits %d x-labelled nodes", f.Kept(), kept)
	}
}

// FuzzFilter holds the semi-join filter to soundness for every pattern
// node: on small labelled graphs, frozen or overlaid, a matcher restricted
// to its sets finds exactly the anchors a plain one does, for the pattern
// and for its PR-style copy; when the filter is exact, to Keep being the
// answer; and to S(x) holding x-labelled nodes only. The seeds run under
// plain go test; each kills one broken pass (a push walking the wrong
// direction, a pull demanding every edge, a push reading only the first
// edge of each range, a push that marks endpoints of any label, a pass
// that takes a self-loop as the edge between two same-label nodes), one
// broken restriction (an empty set admitting nothing, sets indexed by tree
// position instead of pattern node, PR's y reading a Q set) or one broken
// exactness test (one that ignores same-label nodes that are not adjacent).
func FuzzFilter(f *testing.F) {
	// x -f-> c: the push must walk c's in-range, not its out-range.
	f.Add([]byte("70001000110210020710710710710"))
	// The same, on a delta overlay.
	f.Add([]byte("70101000110210020710710710710"))
	// a -e-> x <-f- c: x is kept if some e-edge, not every one, comes from an a.
	f.Add([]byte("70001021210110201002011111002011110010"))
	// x -e-> a: an a's e-labelled in-range holds more than one source.
	f.Add([]byte("790700011111100010000000700"))
	// x -e-> b with b of multiplicity 2: the narrowed x admits node 0, and
	// the un-narrowed leaves must admit both b nodes.
	f.Add([]byte("43270110001010230240"))
	// x -e-> 2 -e-> 1: the tree visits node 2 before node 1, and S(2) is
	// narrowed while node 1 is not.
	f.Add([]byte("440800112021020210240410"))
	// The same plus x -e-> a node 5: PR's y maps only to 5, outside S(x)
	// and S(2).
	f.Add([]byte("5408001120021020210020240050"))
	// x -e-> a over one a node with an e self-loop: the loop is no edge
	// between two a nodes, so the exact filter keeps nothing.
	f.Add([]byte("0307000010000"))
	// x -e-> b <-e- a, the shared-item shape, over a single a -e-> b: the
	// two a nodes are not adjacent, so the pattern is not exact, and the
	// full reduction keeps an x that no injective match reaches.
	f.Add([]byte("140801010010210010"))
	// x -e-> b over a, a, b and c, with a -e-> b and c -e-> b: the push
	// from the lone b must mark a sources only, so S(x) never holds c. On a
	// delta overlay too, where c's edge is the batch's.
	f.Add([]byte("3307001201010020320"))
	f.Add([]byte("3397001201010020320"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p, pr := filterCase(data)
		checkFilter(t, g, p, pr)
	})
}

// TestReleasedMatcherIsUnrestricted pins the pooled-matcher hazard: a
// Matcher taken from the pool after a restricted one was released reads no
// filter sets. The pool usually hands the released Matcher straight back;
// several rounds make that near certain.
func TestReleasedMatcherIsUnrestricted(t *testing.T) {
	g := graph.New(nil)
	a0, b, a2 := g.AddNode("a"), g.AddNode("b"), g.AddNode("a")
	g.AddEdge(a0, b, "e")
	p := pattern.New(g.Symbols())
	p.X = p.AddNode("a")
	p.AddEdge(p.X, p.AddNode("b"), "e")
	lone := pattern.New(g.Symbols())
	lone.X = lone.AddNode("a")
	for range 8 {
		f := NewFilter(p, g)
		if !f.Narrowed() || f.Kept() != 1 {
			t.Fatalf("filter narrowed %v, kept %d; want x narrowed to node %d", f.Narrowed(), f.Kept(), a0)
		}
		m := NewMatcher(p, g, Options{})
		f.Restrict(m)
		m.Release()
		m = NewMatcher(lone, g, Options{})
		if !m.HasMatchAt(a2) {
			t.Fatalf("a lone x misses node %d: the pooled Matcher kept a released restriction", a2)
		}
		m.Release()
		f.Release()
	}
}
