package mine

import (
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/partition"
	"gpar/internal/pattern"
)

// dmineBenchInput builds the seeded Pokec-like workload shared by the DMine
// benchmarks: fixed seed and a fixed worker count, so per-op numbers are
// comparable across commits (they feed BENCH_mine.json).
func dmineBenchInput() (*graph.Graph, core.Predicate, Options) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(500, 7))
	pred := gen.PokecPredicates(syms)[0]
	opts := Options{K: 10, Sigma: 5, D: 2, Lambda: 0.5, N: 4, MaxEdges: 2}.WithOptimizations()
	return g, pred, opts
}

// BenchmarkDMine times the full optimized BSP mining loop end to end:
// levelwise generation, assembly, diversification.
func BenchmarkDMine(b *testing.B) {
	g, pred, opts := dmineBenchInput()
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := DMine(g, pred, opts)
		if len(res.TopK) == 0 {
			b.Fatal("no rules mined")
		}
	}
}

// BenchmarkDMineNo times the unoptimized Section-6 baseline on the same
// workload (no incDiv, no bisimulation prefilter).
func BenchmarkDMineNo(b *testing.B) {
	g, pred, opts := dmineBenchInput()
	g.Freeze()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := DMineNo(g, pred, opts)
		if len(res.TopK) == 0 {
			b.Fatal("no rules mined")
		}
	}
}

// BenchmarkLocalMineRound measures one steady-state generate superstep —
// the arena-backed message lifecycle of the mining loop — over a prebuilt
// context: every worker extends the seed frontier, verifies local supports
// on recycled scratch and emits its messages into recycled round arenas.
// Near-zero allocs/op is the acceptance criterion of the arena rewrite
// (the residue is the superstep's goroutine fan-out).
func BenchmarkLocalMineRound(b *testing.B) {
	g, pred, opts := dmineBenchInput()
	opts = opts.Defaults()
	g.Freeze()
	m := newMiner(NewContext(g, pred.XLabel, opts), pred, opts)
	frontier, err := m.prepare()
	if err != nil {
		b.Fatal(err)
	}
	if frontier == nil {
		b.Fatal("trivial workload")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if msgs, err := m.eng.generate(m, frontier); err != nil || len(msgs) == 0 {
			b.Fatalf("no messages generated (err=%v)", err)
		}
	}
}

// BenchmarkDiscoverExtensions isolates the extension-discovery hot loop of
// localMine: enumerate embeddings around every owned center and accumulate
// the distinct single-edge extensions with their supporting centers.
func BenchmarkDiscoverExtensions(b *testing.B) {
	g, pred, opts := dmineBenchInput()
	g.Freeze()
	m := newMiner(NewContext(g, pred.XLabel, opts), pred, opts.Defaults())
	lp := m.localParams()
	cands := g.NodesWithLabel(pred.XLabel)
	frag := partition.Whole(g, cands)
	frag.G.Freeze()
	w := &worker{id: 0, frag: frag}
	seedQ := pattern.New(g.Symbols())
	seedQ.X = seedQ.AddNodeL(pred.XLabel)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		accs := w.discoverExtensions(lp, seedQ, frag.Centers, match.Options{})
		if len(accs) == 0 {
			b.Fatal("no extensions discovered")
		}
	}
}
