package core_test

import (
	"math"
	"testing"

	. "gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/pattern"
)

// TestExample5And8Numbers pins the paper's Examples 5 and 8 on G1:
// supp(q,G1)=5, supp(q̄,G1)=1, and the confidences of R1 and R5-R8.
func TestExample5And8Numbers(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)

	if got := len(Pq(f.G, pred)); got != 5 {
		t.Errorf("supp(q,G1) = %d want 5", got)
	}
	qb := Pqbar(f.G, pred)
	if len(qb) != 1 || qb[0] != f.Cust[5] {
		t.Errorf("q̄ set = %v want [cust5=%d]", qb, f.Cust[5])
	}

	cases := []struct {
		name    string
		rule    *Rule
		suppR   int
		suppQqb int
		conf    float64
		stdConf float64
	}{
		{"R1", gen.R1(syms), 3, 1, 0.6, 0.75},
		{"R5", gen.R5(syms), 4, 1, 0.8, 0.8},
		{"R6", gen.R6(syms), 2, 1, 0.4, 2.0 / 3.0},
		{"R7", gen.R7(syms), 3, 1, 0.6, 0.75},
		{"R8", gen.R8(syms), 1, 1, 0.2, 0.5},
	}
	for _, c := range cases {
		res := Eval(f.G, c.rule, match.Options{}, false)
		if res.Stats.SuppR != c.suppR {
			t.Errorf("%s: supp(R) = %d want %d", c.name, res.Stats.SuppR, c.suppR)
		}
		if res.Stats.SuppQqb != c.suppQqb {
			t.Errorf("%s: supp(Qq̄) = %d want %d", c.name, res.Stats.SuppQqb, c.suppQqb)
		}
		if got := res.Stats.Conf(); math.Abs(got-c.conf) > 1e-9 {
			t.Errorf("%s: conf = %v want %v", c.name, got, c.conf)
		}
	}
	// Example 5/Q1: supp(Q1,G1) = 4.
	res := Eval(f.G, gen.R1(syms), match.Options{}, true)
	if res.Stats.SuppQ != 4 {
		t.Errorf("supp(Q1,G1) = %d want 4", res.Stats.SuppQ)
	}
	// Conventional confidence of R1 would be 3/4 (Section 3's critique).
	if got := res.Stats.StdConf(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("StdConf(R1) = %v want 0.75", got)
	}
}

// TestExample7LCWA reproduces Example 6/7: three Ecuador residents where
// v1 likes the album (positive), v2 likes only another album (negative) and
// v3 has no like edge (unknown). BF confidence is 1; conventional
// confidence would be 1/3.
func TestExample7LCWA(t *testing.T) {
	syms := graph.NewSymbols()
	g := graph.New(syms)
	ec := g.AddNode("Ecuador")
	shak := g.AddNode("Shakira album")
	mj := g.AddNode("MJ album")
	v1 := g.AddNode("person")
	v2 := g.AddNode("person")
	v3 := g.AddNode("person")
	for _, v := range []graph.NodeID{v1, v2, v3} {
		g.AddEdge(v, ec, "live_in")
	}
	g.AddEdge(v1, shak, "like")
	g.AddEdge(v2, mj, "like")

	p := pattern.New(syms)
	x := p.AddNode("person")
	c := p.AddNode("Ecuador")
	p.AddEdge(x, c, "live_in")
	p.X = x
	r := &Rule{Q: p, Pred: Predicate{
		XLabel:    syms.Intern("person"),
		EdgeLabel: syms.Intern("like"),
		YLabel:    syms.Intern("Shakira album"),
	}}
	res := Eval(g, r, match.Options{}, true)
	s := res.Stats
	if s.SuppR != 1 || s.SuppQbar != 1 || s.SuppQqb != 1 || s.SuppQ1 != 1 {
		t.Fatalf("stats = %+v want 1,1,1,1", s)
	}
	if got := s.Conf(); got != 1 {
		t.Errorf("conf = %v want 1 (LCWA removes the unknown case)", got)
	}
	if got := s.StdConf(); math.Abs(got-1.0/3.0) > 1e-9 {
		t.Errorf("StdConf = %v want 1/3", got)
	}
}

func TestTrivialCases(t *testing.T) {
	// supp(Qq̄) = 0: logic rule on G2 (every fake-suspect already is fake).
	syms := graph.NewSymbols()
	f := gen.G2(syms)
	r4 := gen.R4(syms)
	res := Eval(f.G, r4, match.Options{}, false)
	if res.Stats.SuppR != 3 {
		t.Errorf("supp(R4,G2) = %d want 3", res.Stats.SuppR)
	}
	trivial, reason := res.Stats.Trivial()
	if !trivial {
		t.Error("R4 on G2 should be trivial (supp(Qq̄)=0)")
	}
	if reason == "" {
		t.Error("missing triviality reason")
	}
	if !math.IsInf(res.Stats.Conf(), 1) {
		t.Errorf("conf should be +Inf for a logic rule, got %v", res.Stats.Conf())
	}

	// supp(q) = 0: predicate names a label no edge points to.
	bad := &Rule{Q: r4.Q, Pred: Predicate{
		XLabel:    syms.Intern(gen.LAcct),
		EdgeLabel: syms.Intern("nonexistent"),
		YLabel:    syms.Intern(gen.LFake),
	}}
	res2 := Eval(f.G, bad, match.Options{}, false)
	if trivial, _ := res2.Stats.Trivial(); !trivial {
		t.Error("supp(q)=0 should be trivial")
	}
	if !math.IsNaN(res2.Stats.Conf()) {
		t.Errorf("conf should be NaN when supp(q)=0, got %v", res2.Stats.Conf())
	}
}

func TestPRConstruction(t *testing.T) {
	syms := graph.NewSymbols()
	r1 := gen.R1(syms)
	pr := r1.PR()
	// PR adds exactly one edge (x already has y in Q1).
	if pr.NumEdges() != r1.Q.NumEdges()+1 {
		t.Errorf("PR edges = %d want %d", pr.NumEdges(), r1.Q.NumEdges()+1)
	}
	if pr.NumNodes() != r1.Q.NumNodes() {
		t.Errorf("PR should not add nodes when Q has y")
	}
	if !pr.HasEdge(pr.X, pr.Y, r1.Pred.EdgeLabel) {
		t.Error("PR lacks the consequent edge")
	}
	// A rule whose Q has no y gets a fresh y node.
	p := pattern.New(syms)
	x := p.AddNode(gen.LCust)
	x2 := p.AddNode(gen.LCust)
	p.AddEdge(x, x2, gen.EFriend)
	p.X = x
	r := &Rule{Q: p, Pred: gen.VisitPredicate(syms)}
	pr2 := r.PR()
	if pr2.NumNodes() != 3 || pr2.Y == pattern.NoNode {
		t.Errorf("fresh y not added: %d nodes, Y=%d", pr2.NumNodes(), pr2.Y)
	}

	// gpard's identify kernel restricts PR's matcher to the filter sets of
	// Q's expanded nodes, so Q.Expand() must be a numbering prefix of
	// PR.Expand() with a subset of its edges: for R1 (y in Q, the
	// multiplicity-3 node before it) and for a Q without y whose
	// multiplicity-2 node expands before the appended y.
	fr := p.AddNode(gen.LFrench)
	p.SetMult(fr, 2)
	p.AddEdge(x2, fr, gen.ELike)
	for _, r := range []*Rule{r1, r} {
		q, pr := r.Q.Expand(), r.PR().Expand()
		if q.NumNodes() == r.Q.NumNodes() || q.X != pr.X || q.NumNodes() > pr.NumNodes() {
			t.Fatalf("%v: Q expands to %d nodes, x = %d; PR to %d nodes, x = %d", r.Q, q.NumNodes(), q.X, pr.NumNodes(), pr.X)
		}
		for u := 0; u < q.NumNodes(); u++ {
			if q.Label(u) != pr.Label(u) {
				t.Errorf("%v: expanded node %d is %s in Q, %s in PR", r.Q, u, q.LabelName(u), pr.LabelName(u))
			}
		}
		for _, e := range q.Edges() {
			if !pr.HasEdge(e.From, e.To, e.Label) {
				t.Errorf("%v: expanded Q edge %v is not in PR", r.Q, e)
			}
		}
	}
}

func TestRadiusAndNontrivial(t *testing.T) {
	syms := graph.NewSymbols()
	r1 := gen.R1(syms)
	// The consequent edge visit(x,y) pulls y to distance 1 of x, so PR1 has
	// radius 1 even though the antecedent Q1 has radius 2.
	if r := r1.Radius(); r != 1 {
		t.Errorf("r(PR1, x) = %d want 1", r)
	}
	if r := r1.Q.RadiusAt(r1.Q.X); r != 2 {
		t.Errorf("r(Q1, x) = %d want 2", r)
	}
	if !r1.Nontrivial() {
		t.Error("R1 should be nontrivial")
	}
	// Empty antecedent is trivial.
	p := pattern.New(syms)
	p.X = p.AddNode(gen.LCust)
	r := &Rule{Q: p, Pred: gen.VisitPredicate(syms)}
	if r.Nontrivial() {
		t.Error("empty-Q rule should be trivial")
	}
	// q(x,y) inside Q is trivial.
	p2 := pattern.New(syms)
	x := p2.AddNode(gen.LCust)
	y := p2.AddNode(gen.LFrench)
	p2.AddEdge(x, y, gen.EVisit)
	p2.X, p2.Y = x, y
	r2 := &Rule{Q: p2, Pred: gen.VisitPredicate(syms)}
	if r2.Nontrivial() {
		t.Error("rule with q(x,y) in Q should be trivial")
	}
}

func TestValidate(t *testing.T) {
	syms := graph.NewSymbols()
	r1 := gen.R1(syms)
	if err := r1.Validate(); err != nil {
		t.Errorf("R1 should validate: %v", err)
	}
	bad := &Rule{Q: nil, Pred: r1.Pred}
	if bad.Validate() == nil {
		t.Error("nil Q validated")
	}
	p := pattern.New(syms)
	p.AddNode(gen.LCity)
	r := &Rule{Q: p, Pred: r1.Pred}
	if r.Validate() == nil {
		t.Error("rule without x validated")
	}
	p.X = 0 // city-labeled x vs cust predicate
	if r.Validate() == nil {
		t.Error("x label mismatch validated")
	}
}

func TestPCAConf(t *testing.T) {
	s := Stats{SuppR: 3, SuppQqb: 2}
	if got := s.PCAConf(); got != 1.5 {
		t.Errorf("PCAConf = %v want 1.5", got)
	}
	if !math.IsInf(Stats{SuppR: 1}.PCAConf(), 1) {
		t.Error("PCAConf with zero denominator should be +Inf")
	}
}

func TestIConf(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	// IConf of R5: image-based supp(R) <= supp(R); denominator identical.
	r5 := gen.R5(syms)
	bf := Eval(f.G, r5, match.Options{}, false).Stats.Conf()
	ic := IConf(f.G, r5, match.Options{})
	if math.IsNaN(ic) {
		t.Fatal("IConf returned NaN on a well-defined rule")
	}
	if ic > bf+1e-9 {
		t.Errorf("IConf %v should not exceed BF conf %v (min-image <= distinct-x)", ic, bf)
	}
	// Predicate with no support.
	bad := &Rule{Q: r5.Q, Pred: Predicate{
		XLabel:    syms.Intern(gen.LCust),
		EdgeLabel: syms.Intern("zzz"),
		YLabel:    syms.Intern(gen.LFrench),
	}}
	if !math.IsNaN(IConf(f.G, bad, match.Options{})) {
		t.Error("IConf should be NaN when supp(q)=0")
	}
}

func TestEvalFullQEqualsRestrictedOnPaperRules(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	for _, r := range []*Rule{gen.R1(syms), gen.R5(syms), gen.R6(syms), gen.R7(syms), gen.R8(syms)} {
		fast := Eval(f.G, r, match.Options{}, false).Stats
		full := Eval(f.G, r, match.Options{}, true).Stats
		// All counters except SuppQ must agree; SuppQ(full) >= SuppQ(fast).
		if fast.SuppR != full.SuppR || fast.SuppQqb != full.SuppQqb ||
			fast.SuppQ1 != full.SuppQ1 || fast.SuppQbar != full.SuppQbar {
			t.Errorf("fast vs full stats disagree: %+v vs %+v", fast, full)
		}
		if full.SuppQ < fast.SuppQ {
			t.Errorf("full SuppQ %d < restricted %d", full.SuppQ, fast.SuppQ)
		}
	}
}

func TestCloneAndString(t *testing.T) {
	syms := graph.NewSymbols()
	r1 := gen.R1(syms)
	c := r1.Clone()
	c.Q.AddEdge(0, 1, "extra")
	if r1.Q.NumEdges() == c.Q.NumEdges() {
		t.Error("Clone shares the antecedent")
	}
	if r1.String() == "" || r1.Size() != r1.Q.Size() {
		t.Error("String/Size broken")
	}
}

// TestParsePredicate: three comma-separated names, spaces dropped, interned
// x, edge, y — so in a fresh table the edge label is numbered right after x
// and a new y right after the edge, whatever the names.
func TestParsePredicate(t *testing.T) {
	for _, c := range []struct {
		in      string
		x, e, y string // "" = want an error
		yOffset graph.Label
	}{
		{"user,like_music,music:Disco", "user", "like_music", "music:Disco", 2},
		{" user , like_music ,music:Disco ", "user", "like_music", "music:Disco", 2},
		{"b,a,b", "b", "a", "b", 0},
		{in: "user,like_music"},
		{in: "user,like_music,music,Disco"},
		{in: ""},
	} {
		syms := graph.NewSymbols()
		pred, err := ParsePredicate(syms, c.in)
		if c.x == "" {
			if err == nil {
				t.Errorf("ParsePredicate(%q) = %+v, want an error", c.in, pred)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePredicate(%q): %v", c.in, err)
			continue
		}
		if x, e, y := syms.Name(pred.XLabel), syms.Name(pred.EdgeLabel), syms.Name(pred.YLabel); x != c.x || e != c.e || y != c.y {
			t.Errorf("ParsePredicate(%q) names (%q, %q, %q), want (%q, %q, %q)", c.in, x, e, y, c.x, c.e, c.y)
		}
		if pred.EdgeLabel != pred.XLabel+1 || pred.YLabel != pred.XLabel+c.yOffset {
			t.Errorf("ParsePredicate(%q) = %+v, want labels numbered x, edge, y", c.in, pred)
		}
	}
}
