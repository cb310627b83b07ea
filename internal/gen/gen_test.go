package gen_test

import (
	"slices"
	"testing"

	"gpar/internal/core"
	. "gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
)

func TestSyntheticSizes(t *testing.T) {
	g := Synthetic(nil, 1000, 2000, 1)
	if g.NumNodes() != 1000 {
		t.Errorf("nodes = %d want 1000", g.NumNodes())
	}
	if g.NumEdges() != 2000 {
		t.Errorf("edges = %d want 2000", g.NumEdges())
	}
	if g.Size() != 3000 {
		t.Errorf("|G| = %d want 3000", g.Size())
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(nil, 200, 400, 7)
	b := Synthetic(nil, 200, 400, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ across same-seed runs")
	}
	for v := 0; v < a.NumNodes(); v++ {
		if a.LabelName(graph.NodeID(v)) != b.LabelName(graph.NodeID(v)) {
			t.Fatal("labels differ across same-seed runs")
		}
	}
	c := Synthetic(nil, 200, 400, 8)
	same := true
	for v := 0; v < a.NumNodes() && same; v++ {
		if a.LabelName(graph.NodeID(v)) != c.LabelName(graph.NodeID(v)) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical node labels")
	}
}

func TestSyntheticEmpty(t *testing.T) {
	g := Synthetic(nil, 0, 0, 1)
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Error("empty synthetic graph not empty")
	}
}

func TestPokecShape(t *testing.T) {
	syms := graph.NewSymbols()
	g := Pokec(syms, DefaultPokec(500, 42))
	users := g.NodesWithLabel(syms.Lookup("user"))
	if len(users) != 500 {
		t.Fatalf("users = %d want 500", len(users))
	}
	// Every user lives somewhere and has a hobby.
	liveIn := syms.Lookup("live_in")
	hobby := syms.Lookup("hobby")
	follow := syms.Lookup("follow")
	follows := 0
	for _, u := range users {
		if len(g.OutRangeL(u, liveIn)) == 0 {
			t.Fatalf("user %d has no residence", u)
		}
		if len(g.OutRangeL(u, hobby)) == 0 {
			t.Fatalf("user %d has no hobby", u)
		}
		for _, e := range g.Out(u) {
			if e.Label == follow {
				follows++
			}
		}
	}
	if follows < 500 {
		t.Errorf("too few follow edges: %d", follows)
	}
	// The mining predicates must have support.
	for _, pred := range PokecPredicates(syms) {
		if len(core.Pq(g, pred)) == 0 {
			t.Errorf("predicate %s has no support", pred.String(syms))
		}
	}
}

func TestGplusShape(t *testing.T) {
	syms := graph.NewSymbols()
	g := Gplus(syms, DefaultGplus(500, 42))
	users := g.NodesWithLabel(syms.Lookup("user"))
	if len(users) != 500 {
		t.Fatalf("users = %d want 500", len(users))
	}
	school := syms.Lookup("school")
	for _, u := range users {
		if len(g.OutRangeL(u, school)) == 0 {
			t.Fatalf("user %d has no school", u)
		}
	}
	for _, pred := range GplusPredicates(syms) {
		if len(core.Pq(g, pred)) == 0 {
			t.Errorf("predicate %s has no support", pred.String(syms))
		}
	}
}

func TestRulesGenerator(t *testing.T) {
	syms := graph.NewSymbols()
	g := Pokec(syms, DefaultPokec(300, 7))
	pred := PokecPredicates(syms)[0]
	rules := Rules(g, pred, RuleGenParams{Count: 8, VP: 5, EP: 6, Seed: 3})
	if len(rules) == 0 {
		t.Fatal("no rules generated")
	}
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			t.Errorf("rule %d invalid: %v", i, err)
		}
		if !r.Nontrivial() {
			t.Errorf("rule %d trivial: %s", i, r)
		}
		if r.Pred != pred {
			t.Errorf("rule %d has wrong predicate", i)
		}
		// By construction the rule's antecedent matches at least one node.
		ms := match.MatchSet(r.Q, g, nil, match.Options{})
		if len(ms) == 0 {
			t.Errorf("rule %d has empty Q(x,G): %s", i, r)
		}
	}
	// Distinct signatures.
	sigs := map[string]bool{}
	for _, r := range rules {
		sigs[r.Q.Signature()] = true
	}
	if len(sigs) != len(rules) {
		t.Errorf("duplicate rules generated: %d distinct of %d", len(sigs), len(rules))
	}
}

// TestRulesIgnoreFreezeState: a graph's Out and In change order at its
// first freeze, so Rules must draw the same rules from a fresh graph as
// from the same graph once something has frozen it.
func TestRulesIgnoreFreezeState(t *testing.T) {
	keys := func(freeze bool) []string {
		syms := graph.NewSymbols()
		g := Pokec(syms, DefaultPokec(300, 7))
		if freeze {
			g.Freeze()
		}
		var out []string
		for _, r := range Rules(g, PokecPredicates(syms)[0], RuleGenParams{Count: 8, VP: 3, EP: 3, Seed: 3}) {
			out = append(out, r.Key())
		}
		return out
	}
	if fresh, frozen := keys(false), keys(true); !slices.Equal(fresh, frozen) {
		t.Errorf("rules depend on whether the graph was frozen first:\nfresh  %v\nfrozen %v", fresh, frozen)
	}
}

func TestRulesGeneratorEmptyGraph(t *testing.T) {
	syms := graph.NewSymbols()
	g := graph.New(syms)
	pred := core.Predicate{XLabel: syms.Intern("user"), EdgeLabel: syms.Intern("e"), YLabel: syms.Intern("y")}
	if rules := Rules(g, pred, RuleGenParams{Count: 3, VP: 4, EP: 4, Seed: 1}); len(rules) != 0 {
		t.Errorf("rules from empty graph: %d", len(rules))
	}
}

// TestHomophilyCreatesRegularity: with homophily on, the Pokec-like graph
// must contain users whose followees share their music taste — the raw
// material of rule R9. We check the conditional frequency is above the
// base rate.
func TestHomophilyCreatesRegularity(t *testing.T) {
	syms := graph.NewSymbols()
	g := Pokec(syms, DefaultPokec(800, 11))
	users := g.NodesWithLabel(syms.Lookup("user"))
	follow := syms.Lookup("follow")
	likeMusic := syms.Lookup("like_music")
	disco := syms.Lookup("music:Disco")

	base, baseN := 0, 0
	cond, condN := 0, 0
	for _, u := range users {
		likesDisco := false
		for _, e := range g.Out(u) {
			if e.Label == likeMusic && e.To != u && g.Label(e.To) == disco {
				likesDisco = true
			}
		}
		baseN++
		if likesDisco {
			base++
		}
		// Does some followee like Disco?
		followeeLikes := false
		for _, e := range g.Out(u) {
			if e.Label != follow {
				continue
			}
			for _, e2 := range g.Out(e.To) {
				if e2.Label == likeMusic && g.Label(e2.To) == disco {
					followeeLikes = true
				}
			}
		}
		if followeeLikes {
			condN++
			if likesDisco {
				cond++
			}
		}
	}
	if baseN == 0 || condN == 0 {
		t.Skip("degenerate sample")
	}
	baseRate := float64(base) / float64(baseN)
	condRate := float64(cond) / float64(condN)
	if condRate <= baseRate {
		t.Errorf("homophily absent: P(disco|followee) = %v <= base %v", condRate, baseRate)
	}
}

func TestG1SerializationRoundTrip(t *testing.T) {
	syms := graph.NewSymbols()
	f := G1(syms)
	if f.G.NumNodes() == 0 {
		t.Fatal("empty G1")
	}
	// Sanity: supp(q) of the visit predicate is 5 (asserted in detail in
	// the core tests; here we just keep the fixture honest).
	if got := len(core.Pq(f.G, VisitPredicate(syms))); got != 5 {
		t.Errorf("supp(q,G1) = %d want 5", got)
	}
}
