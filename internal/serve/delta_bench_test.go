package serve

import (
	"testing"

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
