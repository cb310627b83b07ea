package mine

import (
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
)

func TestFrequentPredicates(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	preds := FrequentPredicates(f.G, 5, graph.NoLabel)
	if len(preds) != 5 {
		t.Fatalf("got %d predicates want 5", len(preds))
	}
	// The most frequent predicate by distinct sources on G1 is
	// in(French restaurant, city): all 8 French restaurants point at a
	// city. like(cust, French restaurant) (5 sources) must also rank.
	top := preds[0]
	if syms.Name(top.EdgeLabel) != gen.EIn {
		t.Errorf("top predicate = %s want in(French restaurant, city)", top.String(syms))
	}
	foundLike := false
	for _, p := range preds {
		if syms.Name(p.EdgeLabel) == gen.ELike && syms.Name(p.XLabel) == gen.LCust {
			foundLike = true
		}
	}
	if !foundLike {
		t.Errorf("like(cust, French restaurant) missing from top 5: %v", preds)
	}
	// Filtering by edge label restricts the alphabet.
	visit := syms.Lookup(gen.EVisit)
	for _, p := range FrequentPredicates(f.G, 0, visit) {
		if p.EdgeLabel != visit {
			t.Errorf("filter leaked predicate %s", p.String(syms))
		}
	}
}

func TestDMineMulti(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	visit := gen.VisitPredicate(syms)
	like := core.Predicate{
		XLabel:    syms.Intern(gen.LCust),
		EdgeLabel: syms.Intern(gen.ELike),
		YLabel:    syms.Intern(gen.LFrench),
	}
	// Duplicates collapse.
	res := must(DMineMulti(f.G, []core.Predicate{visit, like, visit}, baseOpts()))
	if len(res) != 2 {
		t.Fatalf("got %d results want 2 (dup collapsed)", len(res))
	}
	if res[0].Pred != visit || res[1].Pred != like {
		t.Error("result order does not preserve first occurrence")
	}
	for _, r := range res {
		if r.Result == nil {
			t.Fatal("nil result")
		}
		for _, mm := range r.Result.TopK {
			if mm.Rule.Pred != r.Pred {
				t.Errorf("rule mined for wrong predicate")
			}
		}
	}
}
