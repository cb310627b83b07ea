package gpar_test

// The identify corpus: three graphs of different shape, three rule shapes
// on each. BenchmarkAblation_IdentifyGuidance (ablation_test.go) measures
// guided against unguided matching over it, and TestEvalRuleCorpus checks
// gpard's one snapshot constructor and EvalRule on it in every graph state
// a generation can be in.

import (
	"fmt"
	"slices"
	"testing"

	"gpar/internal/core"
	"gpar/internal/eip"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/mine"
	"gpar/internal/pattern"
	"gpar/internal/serve"
)

// corpusRule is one rule of the corpus, named after its shape.
type corpusRule struct {
	shape string
	rule  *core.Rule
}

// corpusCase is one graph of the corpus with its predicate and rules.
// itemEdge and item name the edge and node label the shared-item rule is
// built over; attrEdge and attr a second attribute for the two-edge shapes.
type corpusCase struct {
	name           string
	g              *graph.Graph
	pred           core.Predicate
	itemEdge, item string
	attrEdge, attr string
	rules          []corpusRule
}

// identifyCorpus builds the corpus at the given user count: the Pokec-like
// graph, the Google+-like graph (five node types, alumni homophily — a
// different shape and label skew), and a hub graph — the Pokec fixture plus
// three items every user is wired to, so one hop from any candidate reaches
// a node whose in-range is every user. Each comes with a mined single-edge
// rule, the two-edge "shares an item with another user" shape over item,
// a |Vp| 4 / |Ep| 5 pattern from gen.Rules, and two-edge shapes — one of
// them, x>user>y, with a node carrying the predicate's y label, so PR's y
// can collide with it: where one node carries that label PR matches
// nowhere, and where two do only PR's matcher can tell (core.Rule.PRAtPq).
func identifyCorpus(tb testing.TB, users int) []corpusCase {
	tb.Helper()
	pokec := gen.Pokec(graph.NewSymbols(), gen.DefaultPokec(users, 1))
	gplus := gen.Gplus(graph.NewSymbols(), gen.DefaultGplus(users, 1))
	hub := gen.Pokec(graph.NewSymbols(), gen.DefaultPokec(users, 1))
	// Collected by Label, not NodesWithLabel: an indexed read would freeze
	// hub and end its build phase.
	var everyone []graph.NodeID
	userL := hub.Symbols().Intern("user")
	for v := graph.NodeID(0); int(v) < hub.NumNodes(); v++ {
		if hub.Label(v) == userL {
			everyone = append(everyone, v)
		}
	}
	for i := 0; i < 3; i++ {
		item := hub.AddNode("hobby:everyone")
		for _, u := range everyone {
			hub.AddEdge(u, item, "hobby")
		}
	}
	cases := []corpusCase{
		{name: "pokec", g: pokec, pred: gen.PokecPredicates(pokec.Symbols())[0],
			itemEdge: "hobby", item: "hobby:party", attrEdge: "like_music", attr: "music:Rock"},
		{name: "gplus", g: gplus, pred: gen.GplusPredicates(gplus.Symbols())[0],
			itemEdge: "school", item: "school:CMU", attrEdge: "employer", attr: "employer:Google"},
		{name: "hub", g: hub, pred: gen.PokecPredicates(hub.Symbols())[0],
			itemEdge: "hobby", item: "hobby:everyone", attrEdge: "like_music", attr: "music:Rock"},
	}
	for i := range cases {
		c := &cases[i]
		c.g.Freeze()
		mined := mine.DMine(c.g, c.pred, mine.Options{
			K: 1, Sigma: 2, D: 1, Lambda: 0.5, N: 2, MaxEdges: 1,
		})
		if len(mined.TopK) == 0 {
			tb.Fatalf("%s: no single-edge rule mined", c.name)
		}
		q := pattern.New(c.g.Symbols())
		q.X = q.AddNode("user")
		item, other := q.AddNode(c.item), q.AddNode("user")
		q.AddEdge(q.X, item, c.itemEdge)
		q.AddEdge(other, item, c.itemEdge)
		large := gen.Rules(c.g, c.pred, gen.RuleGenParams{Count: 1, VP: 4, EP: 5, Seed: 1})
		if len(large) == 0 {
			tb.Fatalf("%s: gen.Rules produced no |Vp| 4 / |Ep| 5 rule", c.name)
		}
		// The benchmark's six two-edge shapes: x and another user joined by
		// follow (x -> user when out, user -> x otherwise) and one edge from
		// x or from the other user to an item, a city, or a second attribute.
		twoEdge := func(out, onX bool, edge, label string) *core.Rule {
			q := pattern.New(c.g.Symbols())
			q.X = q.AddNode("user")
			u, it := q.AddNode("user"), q.AddNode(label)
			if out {
				q.AddEdge(q.X, u, "follow")
			} else {
				q.AddEdge(u, q.X, "follow")
			}
			if onX {
				q.AddEdge(q.X, it, edge)
			} else {
				q.AddEdge(u, it, edge)
			}
			return &core.Rule{Q: q, Pred: c.pred}
		}
		c.rules = []corpusRule{
			{"mined-1edge", mined.TopK[0].Rule},
			{"shared-item", &core.Rule{Q: q, Pred: c.pred}},
			{"vp4-ep5", large[0]},
			{"x>user,x>item", twoEdge(true, true, c.itemEdge, c.item)},
			{"user>x,x>item", twoEdge(false, true, c.itemEdge, c.item)},
			{"x>user>city", twoEdge(true, false, "live_in", "city:00")},
			{"user>x,user>city", twoEdge(false, false, "live_in", "city:00")},
			{"x>user>attr", twoEdge(true, false, c.attrEdge, c.attr)},
			{"user>x,user>item", twoEdge(false, false, c.itemEdge, c.item)},
			{"x>user>y", twoEdge(true, false, c.g.Symbols().Name(c.pred.EdgeLabel), c.g.Symbols().Name(c.pred.YLabel))},
		}
	}
	return cases
}

// inexact names the corpus shapes whose pattern is not exact for the
// identify filter (match.Filter.Exact), so that EvalRule confirms their
// survivors: shared-item's two users are not adjacent, and a |Vp| 4 /
// |Ep| 5 pattern is no tree. Every other shape is exact on every graph.
var inexact = map[string]bool{"shared-item": true, "vp4-ep5": true}

// TestEvalRuleCorpus checks Snapshot.EvalRule against the sequential
// reference (core.Eval with the plain matcher over the whole graph) for
// every corpus rule, on the three states a served graph goes through —
// frozen, overlaid by a delta batch, and compacted — all built by the one
// snapshot constructor, each at 1, 3 and 7 chunks: EvalRule concatenates
// the chunks' matches without sorting, so a chunk out of order fails the
// comparison. It also pins which rules the filter finds exact, that the
// kernel counts its centres and survivors, the matches alone for an exact
// rule, and that an exact rule's walk of S(x) against the snapshot's class
// bitsets gives what the per-centre loop it replaced (eip.EvalCenters with
// Keep as the Q test) gives on freshly classified centres. The delta
// batch adds a user with a follow self-loop, which the filter must not
// take as the follow edge between two users, relabels a Pq user out of the
// x label and another node into it, grows the graph past a 64-node word of
// the bitsets, and adds a second node with the y label, so the frozen
// state decides x>user>y's PR from Q and the other two search it. CI runs
// it under -race as well.
func TestEvalRuleCorpus(t *testing.T) {
	pool := serve.NewPool(2)
	for _, c := range identifyCorpus(t, 150) {
		t.Run(c.name, func(t *testing.T) {
			rules := make([]*core.Rule, len(c.rules))
			for i, r := range c.rules {
				rules[i] = r.rule
			}
			// A batch that reaches the candidates: a new user who follows
			// and is followed, gains the consequent, an old follow gone, and
			// a second new user who holds the item and follows only itself.
			// It relabels a Pq user out of the x label and a node no rule
			// names into it, with the consequent, and pads the graph with new
			// users until its node count crosses a 64-node word boundary,
			// the last of them a Pq user in the new word who follows. Last, a
			// second y node gets a q edge from a Pq user who follows a user
			// with the consequent, where x>user>y's PR then matches.
			users := c.g.NodesWithLabel(c.pred.XLabel)
			var gone graph.Edge
			for _, e := range c.g.Out(users[0]) {
				if c.g.Label(e.To) == c.pred.XLabel {
					gone = e
				}
			}
			y := c.g.NodesWithLabel(c.pred.YLabel)[0]
			i := slices.IndexFunc(users[3:], func(v graph.NodeID) bool {
				return eip.Classify(c.g, v, c.pred) == eip.Pq
			})
			if i < 0 {
				t.Fatal("no Pq user to relabel")
			}
			leaver := users[3+i]
			follow := c.g.Symbols().Intern("follow")
			i = slices.IndexFunc(users[3:], func(v graph.NodeID) bool {
				return v != leaver && eip.Classify(c.g, v, c.pred) == eip.Pq &&
					slices.ContainsFunc(c.g.Out(v), func(e graph.Edge) bool {
						return e.Label == follow && c.g.Label(e.To) == c.pred.XLabel && c.g.HasEdge(e.To, y, c.pred.EdgeLabel)
					})
			})
			if i < 0 {
				t.Fatal("no Pq user who follows one with the consequent")
			}
			fan := users[3+i]
			used := map[graph.Label]bool{c.pred.YLabel: true}
			for _, r := range rules {
				for u := range r.Q.NumNodes() {
					used[r.Q.Label(u)] = true
				}
			}
			joiner := graph.NodeID(0)
			for used[c.g.Label(joiner)] {
				joiner++
			}
			fresh := graph.NodeID(c.g.NumNodes())
			ops := []graph.DeltaOp{
				{Kind: graph.DeltaAddNode, Label: c.pred.XLabel},
				{Kind: graph.DeltaAddEdge, From: fresh, To: users[1], Label: follow},
				{Kind: graph.DeltaAddEdge, From: users[2], To: fresh, Label: follow},
				{Kind: graph.DeltaAddEdge, From: fresh, To: y, Label: c.pred.EdgeLabel},
				{Kind: graph.DeltaDelEdge, From: users[0], To: gone.To, Label: gone.Label},
				{Kind: graph.DeltaAddNode, Label: c.pred.XLabel},
				{Kind: graph.DeltaAddEdge, From: fresh + 1, To: fresh + 1, Label: follow},
				{Kind: graph.DeltaAddEdge, From: fresh + 1, To: c.g.NodesWithLabel(c.g.Symbols().Intern(c.item))[0],
					Label: c.g.Symbols().Intern(c.itemEdge)},
				{Kind: graph.DeltaSetLabel, Node: leaver, Label: c.g.Label(joiner)},
				{Kind: graph.DeltaSetLabel, Node: joiner, Label: c.pred.XLabel},
				{Kind: graph.DeltaAddEdge, From: joiner, To: y, Label: c.pred.EdgeLabel},
			}
			last := fresh + 1
			for int(last) < (c.g.NumNodes()+63)/64*64 {
				last++
				ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAddNode, Label: c.pred.XLabel})
			}
			ops = append(ops,
				graph.DeltaOp{Kind: graph.DeltaAddEdge, From: last, To: users[1], Label: follow},
				graph.DeltaOp{Kind: graph.DeltaAddEdge, From: last, To: y, Label: c.pred.EdgeLabel},
				graph.DeltaOp{Kind: graph.DeltaAddNode, Label: c.pred.YLabel},
				graph.DeltaOp{Kind: graph.DeltaAddEdge, From: fan, To: last + 1, Label: c.pred.EdgeLabel})
			overlaid, err := c.g.ApplyDelta(ops)
			if err != nil {
				t.Fatalf("ApplyDelta: %v", err)
			}
			compacted := overlaid.CompactCopy()
			if !slices.ContainsFunc(rules, func(r *core.Rule) bool { same, never := r.PRAtPq(2); return !same && !never }) {
				t.Error("every corpus rule is y-free: no EvalRule here searches PR")
			}
			for g, ny := range map[*graph.Graph]int{c.g: 1, overlaid: 2, compacted: 2} {
				if got := len(g.NodesWithLabel(c.pred.YLabel)); got != ny {
					t.Fatalf("%d nodes carry the y label, want %d", got, ny)
				}
			}
			for _, workers := range []int{1, 3, 7} {
				cfg := serve.Config{Workers: workers}
				frozen, err := serve.BuildSnapshot(c.g, c.pred, rules, cfg)
				if err != nil {
					t.Fatalf("BuildSnapshot: %v", err)
				}
				states := []struct {
					name string
					snap *serve.Snapshot
				}{
					{fmt.Sprintf("frozen@%d", workers), frozen},
					{fmt.Sprintf("overlaid@%d", workers), serve.DeriveDeltaSnapshot(frozen, overlaid, cfg)},
					{fmt.Sprintf("compacted@%d", workers), serve.DeriveDeltaSnapshot(frozen, compacted, cfg)},
				}
				for _, st := range states {
					for i, sr := range st.snap.Rules {
						want := core.Eval(st.snap.G, sr.Rule, match.Options{}, true)
						slices.Sort(want.QSet)
						got := st.snap.EvalRule(sr, pool)
						if !slices.Equal(got.Matches, want.QSet) || got.Stats != want.Stats {
							t.Errorf("%s/%s: EvalRule = %d matches, stats %+v; core.Eval = %d matches, stats %+v",
								st.name, c.rules[i].shape, len(got.Matches), got.Stats, len(want.QSet), want.Stats)
						}
						if len(want.QSet) == 0 {
							t.Errorf("%s/%s: rule matches nowhere; the case checks nothing", st.name, c.rules[i].shape)
						}
						f := match.NewFilter(sr.Rule.Q, st.snap.G)
						if shape := c.rules[i].shape; f.Exact() == inexact[shape] {
							t.Errorf("%s/%s: filter exact = %v, want %v", st.name, shape, f.Exact(), !inexact[shape])
						}
						if centres := len(st.snap.G.NodesWithLabel(c.pred.XLabel)); got.Centres != centres || got.Survivors != f.Kept() ||
							got.Survivors < len(got.Matches) || f.Exact() && got.Survivors != len(got.Matches) {
							t.Errorf("%s/%s: %d centres, %d survivors, %d matches (exact %v); want %d centres, %d survivors, no fewer than the matches and, if exact, as many",
								st.name, c.rules[i].shape, got.Centres, got.Survivors, len(got.Matches), f.Exact(), centres, f.Kept())
						}
						if f.Exact() {
							prm := match.NewMatcher(sr.Rule.PR(), st.snap.G, match.Options{})
							cs := eip.ClassifyCenters(st.snap.G, st.snap.G.NodesWithLabel(c.pred.XLabel), c.pred)
							loop := eip.EvalCenters(prm.HasMatchAt, f.Keep, cs)
							prm.Release()
							if !slices.Equal(got.Matches, loop.Q) || got.Stats.SuppR != loop.R || got.Stats.SuppQqb != loop.Qqb {
								t.Errorf("%s/%s: the walk = %d matches, supp(R) %d, supp(Qq̄) %d; the centre loop = %d, %d, %d",
									st.name, c.rules[i].shape, len(got.Matches), got.Stats.SuppR, got.Stats.SuppQqb, len(loop.Q), loop.R, loop.Qqb)
							}
						}
						f.Release()
					}
				}
			}
		})
	}
}

// BenchmarkEvalRuleShapes times one uncached Snapshot.EvalRule per op for
// every corpus rule at 10 000 users, on a frozen snapshot of two chunks
// and a one-slot pool (gpard's -n 2 on a two-core machine), so ns/op is
// the kernel's CPU per evaluation: the filter pass plus the confirm step.
func BenchmarkEvalRuleShapes(b *testing.B) {
	pool := serve.NewPool(1)
	for _, c := range identifyCorpus(b, 10000) {
		rules := make([]*core.Rule, len(c.rules))
		for i, r := range c.rules {
			rules[i] = r.rule
		}
		snap, err := serve.BuildSnapshot(c.g, c.pred, rules, serve.Config{Workers: 2})
		if err != nil {
			b.Fatalf("BuildSnapshot: %v", err)
		}
		for i, sr := range snap.Rules {
			b.Run(c.name+"/"+c.rules[i].shape, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					snap.EvalRule(sr, pool)
				}
			})
		}
	}
}
