package bisim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

func twoNode(syms *graph.Symbols, la, lb, le string) *pattern.Pattern {
	p := pattern.New(syms)
	a := p.AddNode(la)
	b := p.AddNode(lb)
	p.AddEdge(a, b, le)
	p.X = a
	return p
}

func TestIdenticalPatternsBisimilar(t *testing.T) {
	syms := graph.NewSymbols()
	p := twoNode(syms, "a", "b", "e")
	q := twoNode(syms, "a", "b", "e")
	if !Bisimilar(p, q) {
		t.Error("identical patterns not bisimilar")
	}
}

func TestDifferentLabelsNotBisimilar(t *testing.T) {
	syms := graph.NewSymbols()
	p := twoNode(syms, "a", "b", "e")
	q := twoNode(syms, "a", "c", "e")
	r := twoNode(syms, "a", "b", "f")
	if Bisimilar(p, q) {
		t.Error("node-label difference not detected")
	}
	if Bisimilar(p, r) {
		t.Error("edge-label difference not detected")
	}
}

func TestDesignationMatters(t *testing.T) {
	syms := graph.NewSymbols()
	p := twoNode(syms, "a", "a", "e")
	q := twoNode(syms, "a", "a", "e")
	q.X = 1 // designate the other endpoint
	if Bisimilar(p, q) {
		t.Error("x designation difference not detected")
	}
}

// TestBisimilarButNotIsomorphic exercises the one-way nature of Lemma 4: a
// 2-cycle and a 4-cycle of identical labels are bisimilar but not
// isomorphic, so the prefilter passes them and exact isomorphism rejects.
func TestBisimilarButNotIsomorphic(t *testing.T) {
	syms := graph.NewSymbols()
	mkCycle := func(n int) *pattern.Pattern {
		p := pattern.New(syms)
		for i := 0; i < n; i++ {
			p.AddNode("a")
		}
		for i := 0; i < n; i++ {
			p.AddEdge(i, (i+1)%n, "e")
		}
		return p
	}
	c2, c4 := mkCycle(2), mkCycle(4)
	if !Bisimilar(c2, c4) {
		t.Error("uniform cycles should be bisimilar")
	}
	if c2.IsomorphicTo(c4) {
		t.Error("different-size cycles reported isomorphic")
	}
}

// TestLemma4Soundness: isomorphic patterns are always bisimilar — the
// contrapositive of Lemma 4 that makes the prefilter safe.
func TestLemma4Soundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		syms := graph.NewSymbols()
		labels := []string{"a", "b", "c"}
		n := 2 + rng.Intn(5)
		p := pattern.New(syms)
		for i := 0; i < n; i++ {
			p.AddNode(labels[rng.Intn(3)])
			if i > 0 {
				p.AddEdge(rng.Intn(i), i, "e")
			}
		}
		p.X = 0
		// Build an isomorphic copy by permuting node order.
		perm := rng.Perm(n)
		inv := make([]int, n)
		for ni, oi := range perm {
			inv[oi] = ni
		}
		q := pattern.New(syms)
		lab := make([]graph.Label, n)
		for old := 0; old < n; old++ {
			lab[inv[old]] = p.Label(old)
		}
		for _, l := range lab {
			q.AddNodeL(l)
		}
		for _, e := range p.Edges() {
			q.AddEdgeL(inv[e.From], inv[e.To], e.Label)
		}
		q.X = inv[p.X]
		return Bisimilar(p, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestAppendSummary(t *testing.T) {
	syms := graph.NewSymbols()
	p := twoNode(syms, "a", "b", "e")
	q := twoNode(syms, "a", "c", "e")
	// Appending into one recycled buffer must produce the same summaries
	// as appending each to an empty one, as independent regions.
	var buf Summary
	m1 := len(buf)
	buf = AppendSummary(buf, p)
	s1 := buf[m1:len(buf):len(buf)]
	m2 := len(buf)
	buf = AppendSummary(buf, q)
	s2 := buf[m2:len(buf):len(buf)]
	if !s1.Equal(AppendSummary(nil, p)) || !s2.Equal(AppendSummary(nil, q)) {
		t.Error("summaries appended to a shared buffer differ from standalone ones")
	}
	if s1.Equal(s2) {
		t.Error("different patterns share a summary")
	}
}

func TestSummaryEqualLengthMismatch(t *testing.T) {
	a := Summary{1, 2}
	b := Summary{1}
	if a.Equal(b) || b.Equal(a) {
		t.Error("length-mismatched summaries reported equal")
	}
	if !a.Equal(Summary{1, 2}) {
		t.Error("equal summaries reported unequal")
	}
}

func TestMultiplicityCollapsesInSummary(t *testing.T) {
	// Bisimulation cannot distinguish k parallel copies; the prefilter must
	// still pass such pairs to exact isomorphism, not reject them.
	syms := graph.NewSymbols()
	mk := func(k int) *pattern.Pattern {
		p := pattern.New(syms)
		x := p.AddNode("cust")
		fr := p.AddNode("rest")
		p.SetMult(fr, k)
		p.AddEdge(x, fr, "like")
		p.X = x
		return p
	}
	p2, p3 := mk(2), mk(3)
	if !Bisimilar(p2, p3) {
		t.Error("copies of a bisimilar node should collapse")
	}
	if p2.IsomorphicTo(p3) {
		t.Error("different multiplicities reported isomorphic")
	}
}
