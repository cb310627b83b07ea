package serve

import (
	"fmt"
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
)

// BenchmarkDeltaApply measures turning a frozen Pokec-scale graph into a
// served overlay: one 6-op batch per iteration (two fresh nodes, wiring,
// one relabel), each applied to the pristine base — the steady-state cost
// of a POST /v1/graph/delta minus snapshot derivation. Recorded in
// BENCH_match.json by `make bench` (reported, no gating baseline).
func BenchmarkDeltaApply(b *testing.B) {
	snap, _, _ := benchSnapshot(b)
	g := snap.G
	syms := g.Symbols()
	user := g.Label(0)
	var edge graph.Label
	for v := 0; v < g.NumNodes(); v++ {
		if out := g.Out(graph.NodeID(v)); len(out) > 0 {
			edge = out[0].Label
			break
		}
	}
	island := syms.Intern("bench-island")
	n := graph.NodeID(g.NumNodes())
	ops := []graph.DeltaOp{
		{Kind: graph.DeltaAddNode, Label: user},
		{Kind: graph.DeltaAddNode, Label: user},
		{Kind: graph.DeltaAddEdge, From: n, To: n + 1, Label: edge},
		{Kind: graph.DeltaAddEdge, From: n + 1, To: n, Label: edge},
		{Kind: graph.DeltaAddEdge, From: 0, To: n, Label: edge},
		{Kind: graph.DeltaSetLabel, Node: n + 1, Label: island},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ApplyDelta(ops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdentifyWithOverlay is BenchmarkIdentify's twin for live graphs:
// the same uncached EvalRule loop over the same snapshot code, but on a
// graph whose overlay holds a small off-to-the-side mutation. The gap
// between the two is what reading through an overlay costs the matcher.
func BenchmarkIdentifyWithOverlay(b *testing.B) {
	snap, _, pool := benchSnapshot(b)
	syms := snap.G.Symbols()
	n := graph.NodeID(snap.G.NumNodes())
	g2, err := snap.G.ApplyDelta([]graph.DeltaOp{
		{Kind: graph.DeltaAddNode, Label: syms.Intern("bench-island")},
		{Kind: graph.DeltaAddNode, Label: syms.Intern("bench-island")},
		{Kind: graph.DeltaAddEdge, From: n, To: n + 1, Label: syms.Intern("bench-bridge")},
	})
	if err != nil {
		b.Fatal(err)
	}
	delta := DeriveDeltaSnapshot(snap, g2, Config{Workers: 4})
	rules := delta.Rules
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		delta.EvalRule(rules[i%len(rules)], pool)
	}
}

// BenchmarkDeltaRepair is the ack cost of a delta batch on a rule's edge
// label: one user–user edge, added and deleted on alternate iterations,
// through ApplyDelta on benchSnapshot's rules. cold has no cached
// evaluation to maintain; warm reads every rule before each batch (cache
// hits once the first is evaluated), so each batch also re-checks the
// centres the edge can affect. The gap is what the repair adds to the
// ack. The cold/users=N rows are the same ack, with a follow edge between
// two users and an empty rule set, on Pokec graphs of 1 500, 15 000 and
// 60 000 users (1 546, 15 046 and 60 046 nodes): a batch should cost what
// it touches, not |V|. Recorded in BENCH_match.json by `make bench`.
func BenchmarkDeltaRepair(b *testing.B) {
	snap, served, _ := benchSnapshot(b)
	g, xl := snap.G, snap.Pred.XLabel
	var l graph.Label
	for _, sr := range served {
		for _, e := range sr.Rule.Q.Edges() {
			if sr.Rule.Q.Label(e.From) == xl && sr.Rule.Q.Label(e.To) == xl {
				l = e.Label
			}
		}
	}
	users := g.NodesWithLabel(xl)
	u, v := users[0], users[1]
	for _, w := range users[1:] {
		if !g.HasEdge(u, w, l) {
			v = w
			break
		}
	}
	rules := make([]*core.Rule, len(served))
	for i, sr := range served {
		rules[i] = sr.Rule
	}
	name := g.Symbols().Name(l)
	batches := [2]DeltaRequest{
		{Ops: []DeltaOpSpec{{Op: "addEdge", From: int32(u), To: int32(v), Label: name}}},
		{Ops: []DeltaOpSpec{{Op: "delEdge", From: int32(u), To: int32(v), Label: name}}},
	}
	for _, warm := range []bool{false, true} {
		b.Run(map[bool]string{false: "cold", true: "warm"}[warm], func(b *testing.B) {
			s := New(Config{Workers: 4})
			if err := s.LoadSnapshot(g, snap.Pred, rules); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if warm {
					cur := s.Snapshot()
					for _, sr := range cur.Rules {
						s.identifyOne(cur, sr)
					}
				}
				if _, err := s.ApplyDelta(batches[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, users := range []int{1500, 15000, 60000} {
		var s *Server
		var batches [2]DeltaRequest
		n := 0 // batches applied, across the calls that size b.N
		b.Run(fmt.Sprintf("cold/users=%d", users), func(b *testing.B) {
			if s == nil {
				syms := graph.NewSymbols()
				g := gen.Pokec(syms, gen.DefaultPokec(users, 1))
				pred := gen.PokecPredicates(syms)[0]
				s = New(Config{Workers: 4})
				if err := s.LoadSnapshot(g, pred, nil); err != nil {
					b.Fatal(err)
				}
				users := g.NodesWithLabel(pred.XLabel)
				u, v := users[0], users[1]
				for _, w := range users[1:] {
					if !g.HasEdge(u, w, syms.Lookup("follow")) {
						v = w
						break
					}
				}
				batches = [2]DeltaRequest{
					{Ops: []DeltaOpSpec{{Op: "addEdge", From: int32(u), To: int32(v), Label: "follow"}}},
					{Ops: []DeltaOpSpec{{Op: "delEdge", From: int32(u), To: int32(v), Label: "follow"}}},
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := s.ApplyDelta(batches[n%2]); err != nil {
					b.Fatal(err)
				}
				n++
			}
		})
	}
}
