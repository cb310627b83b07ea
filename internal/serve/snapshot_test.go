package serve

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// TestConcurrentEvalRuleRace hammers one snapshot with concurrent EvalRule
// calls across all rules — the steady-state shape of gpard under load: a
// shared frozen graph, pooled matchers, and the shared worker pool. Every evaluation must produce the same result as
// a quiet single-threaded one. Run with -race (wired into `make race` and
// CI).
func TestConcurrentEvalRuleRace(t *testing.T) {
	g, pred, rules := fixture(t)
	snap, err := BuildSnapshot(g, pred, rules, Config{Workers: 3})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	pool := NewPool(4)

	// Quiet reference evaluations.
	want := make([]*RuleEval, len(snap.Rules))
	for i, sr := range snap.Rules {
		want[i] = snap.EvalRule(sr, pool)
	}

	const goroutines, iters = 8, 40
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ri := (w + i) % len(snap.Rules)
				got := snap.EvalRule(snap.Rules[ri], pool)
				if !reflect.DeepEqual(got.Matches, want[ri].Matches) || got.Stats != want[ri].Stats {
					errs <- "concurrent EvalRule diverged from quiet evaluation"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestEvalRuleQbarOnlyCenters: a graph whose candidate centers all lack the
// consequent edge to a YLabel node (pure q̄ / unknown classes) must still
// report their Q matches — PR, which adds the consequent edge, matches
// nowhere on such a graph, and that must not silence Q.
func TestEvalRuleQbarOnlyCenters(t *testing.T) {
	syms := graph.NewSymbols()
	g := graph.New(syms)
	c0 := g.AddNode("cust")
	c1 := g.AddNode("cust")
	c2 := g.AddNode("cust")
	bar := g.AddNode("bar")
	g.AddEdge(c0, c1, "friend")
	g.AddEdge(c1, c2, "friend")
	g.AddEdge(c2, bar, "visit") // a visit edge, but never to a "restaurant"

	pred := core.Predicate{
		XLabel:    syms.Intern("cust"),
		EdgeLabel: syms.Intern("visit"),
		YLabel:    syms.Intern("restaurant"),
	}
	// Q: x -friend-> f  ⇒  visit(x, restaurant). Matches c0 and c1.
	q := pattern.New(syms)
	x := q.AddNode("cust")
	q.X = x
	f := q.AddNode("cust")
	q.AddEdge(x, f, "friend")
	r := &core.Rule{Q: q, Pred: pred}
	if err := r.Validate(); err != nil {
		t.Fatalf("rule: %v", err)
	}

	snap, err := BuildSnapshot(g, pred, []*core.Rule{r}, Config{Workers: 1})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	if snap.SuppQ1 != 0 {
		t.Fatalf("fixture broken: expected no Pq centers, got %d", snap.SuppQ1)
	}
	ev := snap.EvalRule(snap.Rules[0], NewPool(1))
	if want := []graph.NodeID{c0, c1}; !slices.Equal(ev.Matches, want) {
		t.Fatalf("EvalRule matches = %v, want %v", ev.Matches, want)
	}
	// c2 is the lone q̄ center but has no outgoing friend edge, so Q does
	// not match it; c0 and c1 are unknown-class customers.
	if ev.Stats.SuppQqb != 0 || ev.Stats.SuppQbar != 1 {
		t.Fatalf("Stats = %+v, want SuppQqb=0 SuppQbar=1", ev.Stats)
	}
}

// TestBuildSnapshotRadiusAtLeastOne pins what the delta repair leans on: a
// served rule's r(PR, x) is never below 1, so x reaches every node of PR
// and the repair's distances in PR are finite. PR always holds q(x,y); the
// two ways under 1 — a node x cannot reach (radius -1) and a consequent
// that loops back onto x (radius 0) — are refused at the door.
func TestBuildSnapshotRadiusAtLeastOne(t *testing.T) {
	g, pred, rules := fixture(t)
	// The smallest antecedent there is: x alone.
	bare := pattern.New(g.Symbols())
	bare.X = bare.AddNodeL(pred.XLabel)
	snap, err := BuildSnapshot(g, pred, append(rules, &core.Rule{Q: bare, Pred: pred}), Config{Workers: 2})
	if err != nil {
		t.Fatalf("BuildSnapshot: %v", err)
	}
	for _, sr := range snap.Rules {
		if sr.Radius < 1 {
			t.Errorf("rule %s served with radius %d", sr.Key, sr.Radius)
		}
	}

	island := pattern.New(g.Symbols())
	island.X = island.AddNodeL(pred.XLabel)
	island.AddNode("bar") // no edge: unreachable from x
	if _, err := BuildSnapshot(g, pred, []*core.Rule{{Q: island, Pred: pred}}, Config{}); err == nil {
		t.Error("a rule with a node x cannot reach was accepted")
	}

	selfPred := core.Predicate{XLabel: pred.XLabel, EdgeLabel: g.Symbols().Intern("friend"), YLabel: pred.XLabel}
	loop := pattern.New(g.Symbols())
	loop.X = loop.AddNodeL(pred.XLabel)
	loop.Y = loop.X
	if _, err := BuildSnapshot(g, selfPred, []*core.Rule{{Q: loop, Pred: selfPred}}, Config{}); err == nil {
		t.Error("a rule whose consequent loops onto x was accepted")
	}
}
