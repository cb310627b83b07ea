package mine

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/pattern"
)

func baseOpts() Options {
	return Options{
		K:        4,
		Sigma:    1,
		D:        2,
		Lambda:   0.5,
		N:        3,
		MaxEdges: 3,
	}
}

// TestDMineFindsRulesOnG1 mines the paper's restaurant graph and checks the
// structural guarantees of the DMP problem statement: every reported rule is
// nontrivial, has supp ≥ σ, r(PR,x) ≤ d, and its reported statistics agree
// with the sequential reference evaluation.
func TestDMineFindsRulesOnG1(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	res := DMine(f.G, pred, baseOpts())
	if len(res.TopK) == 0 {
		t.Fatal("DMine found no rules on G1")
	}
	if len(res.TopK) > 4 {
		t.Fatalf("TopK larger than k: %d", len(res.TopK))
	}
	for _, mm := range res.TopK {
		if !mm.Rule.Nontrivial() {
			t.Errorf("trivial rule reported: %s", mm.Rule)
		}
		if mm.Stats.SuppR < 1 {
			t.Errorf("rule below σ: %s supp=%d", mm.Rule, mm.Stats.SuppR)
		}
		if r := mm.Rule.Radius(); r > 2 {
			t.Errorf("radius bound violated: %d for %s", r, mm.Rule)
		}
		// Re-evaluate sequentially and compare.
		ref := core.Eval(f.G, mm.Rule, match.Options{}, false)
		if ref.Stats.SuppR != mm.Stats.SuppR {
			t.Errorf("%s: mined supp(R)=%d reference=%d", mm.Rule, mm.Stats.SuppR, ref.Stats.SuppR)
		}
		if ref.Stats.SuppQqb != mm.Stats.SuppQqb {
			t.Errorf("%s: mined supp(Qq̄)=%d reference=%d", mm.Rule, mm.Stats.SuppQqb, ref.Stats.SuppQqb)
		}
		if got, want := mm.Conf, ref.Stats.Conf(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: mined conf=%v reference=%v", mm.Rule, got, want)
		}
	}
	if res.Rounds == 0 || res.Generated == 0 {
		t.Error("no rounds or candidates recorded")
	}
	if len(res.WorkerOps) != 3 {
		t.Errorf("WorkerOps = %v want 3 workers", res.WorkerOps)
	}
}

// TestDMineSigmaAgainstEval: every rule DMine keeps — all of Σ, not only
// the top-k — carries the supports and confidence the sequential reference
// evaluation (core.Eval, which always searches PR) computes, for every
// predicate of a Pokec-like and a Google+-like graph. Both the y-free
// children, whose PR check DMine reads off their Q centers, and the rest,
// whose PR it searches, are covered.
func TestDMineSigmaAgainstEval(t *testing.T) {
	syms := graph.NewSymbols()
	graphs := []struct {
		name  string
		g     *graph.Graph
		preds []core.Predicate
	}{
		{"pokec", gen.Pokec(syms, gen.DefaultPokec(300, 3)), gen.PokecPredicates(syms)},
		{"gplus", gen.Gplus(syms, gen.DefaultGplus(300, 3)), gen.GplusPredicates(syms)},
	}
	opts := baseOpts()
	opts.MaxEdges = 2
	for _, tc := range graphs {
		yFree, checked := 0, 0
		for _, pred := range tc.preds {
			for _, mm := range DMine(tc.g, pred, opts).All {
				checked++
				if mm.Rule.YFree() {
					yFree++
				}
				ref := core.Eval(tc.g, mm.Rule, match.Options{}, false)
				if ref.Stats.SuppR != mm.Stats.SuppR || ref.Stats.SuppQqb != mm.Stats.SuppQqb || math.Abs(ref.Stats.Conf()-mm.Conf) > 1e-9 {
					t.Errorf("%s %s: mined supp(R)=%d supp(Qq̄)=%d conf=%v, reference %d %d %v", tc.name, mm.Rule,
						mm.Stats.SuppR, mm.Stats.SuppQqb, mm.Conf, ref.Stats.SuppR, ref.Stats.SuppQqb, ref.Stats.Conf())
				}
			}
		}
		if yFree == 0 || yFree == checked {
			t.Errorf("%s: %d of %d mined rules are y-free; the oracle must see both kinds", tc.name, yFree, checked)
		}
	}
}

// TestDMineDiscoversHighConfidenceFriendRule: on G1, the rule "x friend x',
// x' visits y" predicts visits with BF confidence 1.0 (all five q-matches
// satisfy it, and the one q̄ node matches its antecedent). With λ = 0 the
// objective is pure confidence, so the top-k must contain a conf-1.0 rule.
func TestDMineDiscoversHighConfidenceFriendRule(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	opts := baseOpts()
	opts.K = 2
	opts.Lambda = 0
	res := DMine(f.G, pred, opts)
	best := 0.0
	for _, mm := range res.TopK {
		if mm.Conf > best {
			best = mm.Conf
		}
	}
	if best < 1.0-1e-9 {
		t.Errorf("best confidence %v; expected a conf-1.0 rule in top-k", best)
	}
}

// TestDMineDeterministic: identical inputs yield identical outputs.
func TestDMineDeterministic(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	r1 := DMine(f.G, pred, baseOpts())
	r2 := DMine(f.G, pred, baseOpts())
	if r1.F != r2.F || len(r1.TopK) != len(r2.TopK) {
		t.Fatalf("nondeterministic: F %v vs %v, k %d vs %d", r1.F, r2.F, len(r1.TopK), len(r2.TopK))
	}
	for i := range r1.TopK {
		if !r1.TopK[i].Rule.Q.IsomorphicTo(r2.TopK[i].Rule.Q) {
			t.Errorf("rule %d differs across runs", i)
		}
	}
}

// TestDMineNoAgreesOnQuality: the unoptimized baseline must reach an
// objective value in the same approximation band (both are 2-approximations
// of the same optimum). DMine tests each candidate group once, by code
// lookup, and compares no pair of groups; the baseline compares pairs, and
// more tests than DMine's one per group.
func TestDMineNoAgreesOnQuality(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	opt := DMine(f.G, pred, baseOpts())
	no := DMineNo(f.G, pred, baseOpts())
	if no.F <= 0 || opt.F <= 0 {
		t.Fatalf("objectives: DMine %v DMineNo %v", opt.F, no.F)
	}
	if opt.F < no.F/2-1e-9 || no.F < opt.F/2-1e-9 {
		t.Errorf("objectives outside mutual 2-approx band: %v vs %v", opt.F, no.F)
	}
	if opt.IsoChecks != opt.Generated || no.IsoChecks <= opt.IsoChecks {
		t.Errorf("isomorphism tests: DMine %d for %d groups, DMineNo %d; want one per group, fewer than DMineNo's",
			opt.IsoChecks, opt.Generated, no.IsoChecks)
	}
	if opt.BisimSkips == 0 || no.BisimSkips != 0 {
		t.Errorf("pairs never compared: DMine %d, DMineNo %d; want > 0, 0", opt.BisimSkips, no.BisimSkips)
	}
}

// TestDMineSigmaMatchesDMineNo makes the pairwise baseline the reference for
// canonical-code grouping: on every golden cell, DMine retains exactly the
// Σ DMineNo does — the same run ids, rule keys and statistics.
func TestDMineSigmaMatchesDMineNo(t *testing.T) {
	sigma := func(res *Result) []string {
		var out []string
		for _, mm := range res.All {
			out = append(out, fmt.Sprintf("%s %s %+v", mm.Key(), mm.Rule.Key(), mm.Stats))
		}
		return out
	}
	for _, c := range goldenMatrix() {
		for _, n := range []int{1, 3} {
			o := c.opts
			o.N = n
			got, want := sigma(DMine(c.g, c.pred, o)), sigma(DMineNo(c.g, c.pred, o))
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("%s N=%d: DMine Σ\n %s\nDMineNo Σ\n %s", c.name, n,
					strings.Join(got, "\n "), strings.Join(want, "\n "))
			}
		}
	}
}

// TestDMineSigmaFilters: raising σ above the graph's best support yields no
// rules; σ is applied to supp(R,G).
func TestDMineSigmaFilters(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	opts := baseOpts()
	opts.Sigma = 100
	res := DMine(f.G, pred, opts)
	if len(res.TopK) != 0 {
		t.Errorf("σ=100 should filter everything, got %d rules", len(res.TopK))
	}
	// σ = 5 keeps only rules with full-support: the friend/visit rule has
	// supp 5.
	opts.Sigma = 5
	res = DMine(f.G, pred, opts)
	for _, mm := range res.TopK {
		if mm.Stats.SuppR < 5 {
			t.Errorf("rule below σ=5: supp=%d", mm.Stats.SuppR)
		}
	}
}

// TestDMineTrivialPredicate: a predicate with no support in G returns an
// empty result (trivial case 1 of Section 3).
func TestDMineTrivialPredicate(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := core.Predicate{
		XLabel:    syms.Intern(gen.LCust),
		EdgeLabel: syms.Intern("never"),
		YLabel:    syms.Intern(gen.LFrench),
	}
	res := DMine(f.G, pred, baseOpts())
	if len(res.TopK) != 0 {
		t.Errorf("trivial predicate mined %d rules", len(res.TopK))
	}
}

// TestDMineRadiusBound: with d=1 every mined rule has radius ≤ 1.
func TestDMineRadiusBound(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	opts := baseOpts()
	opts.D = 1
	res := DMine(f.G, pred, opts)
	for _, mm := range res.TopK {
		if r := mm.Rule.Radius(); r > 1 {
			t.Errorf("d=1 violated: radius %d for %s", r, mm.Rule)
		}
	}
}

// TestDMineWorkerCounts: more workers means the max per-worker load drops
// or stays equal (the O(t/n) shape on a work-count proxy).
func TestDMineWorkerLoadSplits(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	opts := baseOpts()
	opts.N = 1
	one := DMine(f.G, pred, opts)
	opts.N = 3
	three := DMine(f.G, pred, opts)
	if three.MaxWorkerOp > one.MaxWorkerOp {
		t.Errorf("max worker load grew with more workers: %d -> %d",
			one.MaxWorkerOp, three.MaxWorkerOp)
	}
	// Results must agree regardless of n.
	if math.Abs(one.F-three.F) > 1e-9 {
		t.Errorf("F differs across worker counts: %v vs %v", one.F, three.F)
	}
}

// TestDMineEcuador reproduces the Example 6/7 scenario end to end: mining
// like(person, Shakira album) must discover the "lives in Ecuador" rule
// with BF confidence 1 under the LCWA.
func TestDMineEcuador(t *testing.T) {
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

	pred := core.Predicate{
		XLabel:    syms.Intern("person"),
		EdgeLabel: syms.Intern("like"),
		YLabel:    syms.Intern("Shakira album"),
	}
	opts := baseOpts()
	opts.K = 2
	res := DMine(g, pred, opts)
	if len(res.TopK) == 0 {
		t.Fatal("no rules found")
	}
	found := false
	for _, mm := range res.TopK {
		for _, e := range mm.Rule.Q.Edges() {
			if mm.Rule.Q.Symbols().Name(e.Label) == "live_in" && mm.Conf == 1.0 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("expected a conf-1 live_in rule; got %v", describe(res))
	}
}

func describe(res *Result) []string {
	var out []string
	for _, mm := range res.TopK {
		out = append(out, mm.Rule.String())
	}
	return out
}

// TestSeedFrontierHandling: a graph with zero candidates for x still
// terminates cleanly.
func TestDMineNoCandidates(t *testing.T) {
	syms := graph.NewSymbols()
	g := graph.New(syms)
	g.AddNode("city")
	pred := core.Predicate{
		XLabel:    syms.Intern("cust"),
		EdgeLabel: syms.Intern("visit"),
		YLabel:    syms.Intern("rest"),
	}
	res := DMine(g, pred, baseOpts())
	if len(res.TopK) != 0 {
		t.Error("rules mined from an empty candidate set")
	}
}

// TestMaxCandidatesPerRound: the cap keeps the highest-support candidates.
func TestMaxCandidatesPerRound(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	opts := baseOpts()
	opts.MaxCandidatesPerRound = 2
	res := DMine(f.G, pred, opts)
	if res.Kept > 2*opts.MaxEdges {
		t.Errorf("cap not applied: kept %d", res.Kept)
	}
}

// TestMinedAccessors covers Key and the seed pattern plumbing.
func TestMinedAccessors(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	res := DMine(f.G, gen.VisitPredicate(syms), baseOpts())
	if len(res.TopK) == 0 {
		t.Skip("no rules")
	}
	if res.TopK[0].Key() == "" {
		t.Error("empty rule key")
	}
}

// TestAdmissibleRejectsConsequentInQ: growth must never produce an
// antecedent containing q(x,y) itself, nor a rule whose PR exceeds the radius
// bound at x — checked on everything DMine retains, at a budget (MaxEdges 3)
// that lets growth reach past d if the bound were not enforced.
func TestAdmissibleRejectsConsequentInQ(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	opts := baseOpts()
	opts.Sigma, opts.D, opts.MaxEdges = 1, 1, 3
	res := DMine(f.G, pred, opts)
	if len(res.All) == 0 {
		t.Fatal("nothing mined")
	}
	for _, m := range res.All {
		q := m.Rule.Q
		if q.Y != pattern.NoNode && q.HasEdge(q.X, q.Y, pred.EdgeLabel) {
			t.Errorf("%s: q(x,y) in Q:\n%s", m.Key(), q)
		}
		pr := m.Rule.PR()
		if rad := pr.RadiusAt(pr.X); rad < 0 || rad > opts.D {
			t.Errorf("%s: r(PR,x) = %d, want 0..%d", m.Key(), rad, opts.D)
		}
	}
}
