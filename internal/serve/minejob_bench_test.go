package serve

import (
	"bytes"
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
	}.Defaults()
	return g, pred, opts
}

// BenchmarkMineJobCold is a mine job against an empty context cache: every
// iteration builds its context and mines on workers drawn from the global
// pool.
func BenchmarkMineJobCold(b *testing.B) {
	g, pred, opts := mineJobBenchInput(b)
	key := MineCtxKey{Gen: 1, XLabel: pred.XLabel, D: opts.D}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := newMemo[MineCtxKey, *mine.Context](4)
		ctx, how, _ := cache.GetOrBuild(key, func() (*mine.Context, error) {
			return mine.NewContext(g, pred.XLabel, opts), nil
		})
		if how != memoBuilt {
			b.Fatal("cold job hit the cache")
		}
		if res, err := mine.DMineCtx(ctx, pred, opts); err != nil || len(res.TopK) == 0 {
			b.Fatalf("no rules mined (err=%v)", err)
		}
	}
}

// BenchmarkMineJobWarm is the repeated-job steady state: the context is
// already resident. An in-process context is the graph's own candidate
// index, so the gap to BenchmarkMineJobCold is what the context LRU itself
// is worth to a job.
func BenchmarkMineJobWarm(b *testing.B) {
	g, pred, opts := mineJobBenchInput(b)
	key := MineCtxKey{Gen: 1, XLabel: pred.XLabel, D: opts.D}
	cache := newMemo[MineCtxKey, *mine.Context](4)
	cache.GetOrBuild(key, func() (*mine.Context, error) {
		return mine.NewContext(g, pred.XLabel, opts), nil
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, how, _ := cache.GetOrBuild(key, func() (*mine.Context, error) {
			b.Fatal("warm job rebuilt the context")
			return nil, nil
		})
		if how != memoHit {
			b.Fatal("warm job missed the cache")
		}
		if res, err := mine.DMineCtx(ctx, pred, opts); err != nil || len(res.TopK) == 0 {
			b.Fatalf("no rules mined (err=%v)", err)
		}
	}
	b.StopTimer()
	if st, _ := cache.Stats(); st.Hits == 0 {
		b.Fatalf("warm benchmark recorded no cache hits: %+v", st)
	}
}

// gplusMineInput is the end-to-end benchmark's mine-jobs input: the
// Google+-style graph of 5 000 users read back from its text form (file
// interning order, as benchmark/inputs.go does), its five predicates, and
// that workload's job parameters (σ is the caller's) on one worker per slot
// of a gate of one, gpard's mine gate on two cores. This is the hub-shaped regime:
// embeddings run through high-degree school, major and employer nodes,
// where the Pokec-like graph of the other mining benchmarks has few.
func gplusMineInput(b *testing.B) (*graph.Graph, []core.Predicate, mine.Options) {
	b.Helper()
	var buf bytes.Buffer
	if _, err := gen.Gplus(graph.NewSymbols(), gen.DefaultGplus(5000, 1)).WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	syms := graph.NewSymbols()
	g, err := graph.Read(&buf, syms)
	if err != nil {
		b.Fatal(err)
	}
	g.Freeze()
	gate := mine.NewGate(1)
	opts := mine.Options{
		K: 8, D: 2, Lambda: 0.5, N: gate.Size(), MaxEdges: 2, MaxCandidatesPerRound: 40,
		Gate: gate,
	}.Defaults()
	return g, gen.GplusPredicates(syms), opts
}

// BenchmarkMineJobGplus is one mine-jobs job per op for each predicate at
// the workload's σ of 4, on a resident context: where a job's time goes,
// predicate by predicate. Recorded in BENCH_mine.json by `make bench`.
func BenchmarkMineJobGplus(b *testing.B) {
	g, preds, opts := gplusMineInput(b)
	opts.Sigma = 4
	for _, pred := range preds {
		ctx := mine.NewContext(g, pred.XLabel, opts)
		b.Run(g.Symbols().Name(pred.YLabel), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if res, err := mine.DMineCtx(ctx, pred, opts); err != nil || len(res.TopK) == 0 {
					b.Fatalf("no rules mined (err=%v)", err)
				}
			}
		})
	}
}

// BenchmarkMineJobSteady is one in-process job as a warmed-up gpard runs it
// on mine-jobs (gplusMineInput): the predicates in turn, σ stepping up from
// 4 once per pass over them, in a cycle of four so an iteration's work does
// not drift with b.N, on workers drawn from the mine package's pool.
//
//   - shared: every job on one resident context per x label, as gpard keeps
//     them, so once the warm-up pass has stored them each parent's
//     discovery is served by the context's memo.
//   - fresh: a new context per job, so every discovery runs and is stored:
//     the discovery kernel and the cost of a cold job's store.
//
// Recorded in BENCH_mine.json by `make bench`.
func BenchmarkMineJobSteady(b *testing.B) {
	g, preds, opts := gplusMineInput(b)
	for _, shared := range []bool{true, false} {
		name := map[bool]string{true: "shared", false: "fresh"}[shared]
		b.Run(name, func(b *testing.B) {
			cache := newMemo[MineCtxKey, *mine.Context](4)
			job := func(i int) {
				pred := preds[i%len(preds)]
				o := opts
				o.Sigma = 4 + (i/len(preds))%4
				ctx := mine.NewContext(g, pred.XLabel, o)
				if shared {
					ctx, _, _ = cache.GetOrBuild(MineCtxKey{Gen: 1, XLabel: pred.XLabel, D: o.D}, func() (*mine.Context, error) {
						return ctx, nil
					})
				}
				res, err := mine.DMineCtx(ctx, pred, o)
				if err != nil || len(res.TopK) == 0 {
					b.Fatalf("job %d: no rules mined (err=%v)", i, err)
				}
			}
			// One pass warms the pooled workers: arenas grown.
			for i := range preds {
				job(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				job(len(preds) + i)
			}
		})
	}
}
