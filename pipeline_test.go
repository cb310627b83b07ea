package gpar_test

// End-to-end pipeline tests covering the same path as the command-line
// tools: generate a graph, serialize and reload it, mine rules, serialize
// and reload those, and identify entities — asserting that every round trip
// preserves the answers.

import (
	"bytes"
	"testing"

	"gpar/internal/core"
	"gpar/internal/eip"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate a Pokec-like graph and serialize/reload it.
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(300, 5))
	var gbuf bytes.Buffer
	if _, err := g.WriteTo(&gbuf); err != nil {
		t.Fatal(err)
	}
	syms2 := graph.NewSymbols()
	g2, err := graph.Read(&gbuf, syms2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("graph round trip changed size: (%d,%d) vs (%d,%d)",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}

	// 2. Mine rules on the reloaded graph.
	pred := core.Predicate{
		XLabel:    syms2.Intern("user"),
		EdgeLabel: syms2.Intern("like_music"),
		YLabel:    syms2.Intern("music:Disco"),
	}
	opts := mine.Options{
		K: 5, Sigma: 3, D: 2, Lambda: 0.3, N: 3,
		MaxEdges: 2, MaxCandidatesPerRound: 30,
	}
	res := mine.DMine(g2, pred, opts)
	if len(res.TopK) == 0 {
		t.Fatal("pipeline mining found no rules")
	}
	var rules []*core.Rule
	for _, mm := range res.TopK {
		rules = append(rules, mm.Rule)
	}

	// 3. Serialize/reload the rules into a third symbol table.
	var rbuf bytes.Buffer
	if err := core.WriteRules(&rbuf, rules); err != nil {
		t.Fatal(err)
	}
	syms3 := graph.NewSymbols()
	rules3, err := core.ReadRules(&rbuf, syms3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules3) != len(rules) {
		t.Fatalf("rule round trip changed count: %d vs %d", len(rules3), len(rules))
	}

	// 4. Reload the graph against the rules' symbol table and identify.
	gbuf.Reset()
	if _, err := g.WriteTo(&gbuf); err != nil {
		t.Fatal(err)
	}
	g3, err := graph.Read(&gbuf, syms3)
	if err != nil {
		t.Fatal(err)
	}
	before, err := eip.Match(g2, rules, eip.Options{N: 2, Eta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	after, err := eip.Match(g3, rules3, eip.Options{N: 2, Eta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Identified) != len(after.Identified) {
		t.Fatalf("round-tripped pipeline disagrees: %d vs %d identified",
			len(before.Identified), len(after.Identified))
	}
	for i := range before.Identified {
		if before.Identified[i] != after.Identified[i] {
			t.Fatalf("identified sets differ at %d", i)
		}
	}
	for i := range before.PerRule {
		if before.PerRule[i].Stats != after.PerRule[i].Stats {
			t.Errorf("rule %d stats differ: %+v vs %+v",
				i, before.PerRule[i].Stats, after.PerRule[i].Stats)
		}
	}
}

// TestPipelineMultiPredicate exercises the §4.2 Remark path end to end.
func TestPipelineMultiPredicate(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(200, 9))
	preds := gen.PokecPredicates(syms)[:2]
	opts := mine.Options{
		K: 3, Sigma: 2, D: 2, Lambda: 0.5, N: 2,
		MaxEdges: 2, MaxCandidatesPerRound: 20,
	}
	for _, pred := range preds {
		for _, mm := range mine.DMine(g, pred, opts).TopK {
			if mm.Rule.Pred != pred {
				t.Error("cross-predicate rule leaked")
			}
		}
	}
}
