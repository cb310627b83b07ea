package serve

import (
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// mineJobBenchInput builds the seeded workload shared by the warm/cold
// mine-job benchmarks: the same Pokec-like graph as BenchmarkDMine, mined
// with a single-round budget so whatever a job pays before its first round
// is a visible share of it. Recorded in BENCH_mine.json by `make bench`.
func mineJobBenchInput(b *testing.B) (*graph.Graph, core.Predicate, mine.Options) {
	b.Helper()
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(500, 7))
	g.Freeze()
	pred := gen.PokecPredicates(syms)[0]
	opts := mine.Options{
		K: 10, Sigma: 5, D: 2, Lambda: 0.5, N: 4, MaxEdges: 1,
	}.WithOptimizations().Defaults()
	return g, pred, opts
}

// BenchmarkMineJobCold is a mine job against an empty context cache: every
// iteration builds its context and mines on workers drawn from the global
// pool.
func BenchmarkMineJobCold(b *testing.B) {
	g, pred, opts := mineJobBenchInput(b)
	key := MineCtxKey{Gen: 1, XLabel: pred.XLabel, D: opts.D, N: opts.N}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := NewMineContextCache(4)
		e, hit := cache.GetOrBuild(key, func() *mine.Context {
			return mine.NewContext(g, pred.XLabel, opts)
		})
		if hit {
			b.Fatal("cold job hit the cache")
		}
		if res, err := mine.DMineCtx(e.ctx, pred, opts); err != nil || len(res.TopK) == 0 {
			b.Fatalf("no rules mined (err=%v)", err)
		}
	}
}

// BenchmarkMineJobWarm is the repeated-job steady state: the context is
// already resident. An in-process context is the graph's own candidate
// index, so the gap to BenchmarkMineJobCold is what the context LRU itself
// is worth to a non-fleet job.
func BenchmarkMineJobWarm(b *testing.B) {
	g, pred, opts := mineJobBenchInput(b)
	key := MineCtxKey{Gen: 1, XLabel: pred.XLabel, D: opts.D, N: opts.N}
	cache := NewMineContextCache(4)
	cache.GetOrBuild(key, func() *mine.Context {
		return mine.NewContext(g, pred.XLabel, opts)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, hit := cache.GetOrBuild(key, func() *mine.Context {
			b.Fatal("warm job rebuilt the context")
			return nil
		})
		if !hit {
			b.Fatal("warm job missed the cache")
		}
		if res, err := mine.DMineCtx(e.ctx, pred, opts); err != nil || len(res.TopK) == 0 {
			b.Fatalf("no rules mined (err=%v)", err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.Hits == 0 {
		b.Fatalf("warm benchmark recorded no cache hits: %+v", st)
	}
}
