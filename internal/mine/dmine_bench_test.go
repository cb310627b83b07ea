package mine

import (
	"bytes"
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// dmineBenchInput builds the seeded Pokec-like workload shared by the DMine
// benchmarks: fixed seed and a fixed worker count, so per-op numbers are
// comparable across commits (they feed BENCH_mine.json).
func dmineBenchInput() (*graph.Graph, core.Predicate, Options) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(500, 7))
	pred := gen.PokecPredicates(syms)[0]
	opts := Options{K: 10, Sigma: 5, D: 2, Lambda: 0.5, N: 4, MaxEdges: 2}
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
// workload (from-scratch diversification, pairwise isomorphism grouping).
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
// After the first superstep the context's memo serves the seed's
// discovery, so this times verification and messages, not discovery
// (BenchmarkDiscoverExtensions).
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
		if msgs, err := m.generate(frontier); err != nil || len(msgs) == 0 {
			b.Fatalf("no messages generated (err=%v)", err)
		}
	}
}

// BenchmarkDiscoverExtensions isolates the extension-discovery hot loop of
// localMine: enumerate embeddings around every owned center and accumulate
// the distinct single-edge extensions with their supporting centers.
//
//   - seed: round 1 on the Pokec-like graph of BenchmarkDMine — every
//     center has one embedding and touches only its own adjacency.
//   - hub: round 2 on the Google+-style graph of BenchmarkMineJobSteady
//     (5 000 users, read back from text), parent x -school-> school:CMU,
//     over the school's students: every center's embedding runs through
//     the one hub, whose in-adjacency is the factor read once per parent.
func BenchmarkDiscoverExtensions(b *testing.B) {
	b.Run("seed", func(b *testing.B) {
		g, pred, opts := dmineBenchInput()
		g.Freeze()
		seedQ := pattern.New(g.Symbols())
		seedQ.X = seedQ.AddNodeL(pred.XLabel)
		benchDiscover(b, g, pred, opts, seedQ, g.NodesWithLabel(pred.XLabel))
	})
	b.Run("hub", func(b *testing.B) {
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
		pred := gen.GplusPredicates(syms)[0]
		opts := Options{K: 8, Sigma: 4, D: 2, Lambda: 0.5, N: 2, MaxEdges: 2, MaxCandidatesPerRound: 40}
		school, cmu := syms.Lookup("school"), g.NodesWithLabel(syms.Lookup("school:CMU"))[0]
		q := pattern.New(syms)
		q.X = q.AddNodeL(pred.XLabel)
		q.AddEdgeL(q.X, q.AddNodeL(g.Label(cmu)), school)
		var centers []graph.NodeID
		for _, e := range g.InRangeL(cmu, school) {
			centers = append(centers, e.To)
		}
		benchDiscover(b, g, pred, opts, q, centers)
	})
}

// benchDiscover times discoverExtensions of parent q over centers on one
// warmed-up worker owning the whole graph.
func benchDiscover(b *testing.B, g *graph.Graph, pred core.Predicate, opts Options, q *pattern.Pattern, centers []graph.NodeID) {
	opts = opts.Defaults()
	w := &worker{g: g, pred: pred, d: opts.D, embedCap: opts.EmbedCap}
	w.discoverExtensions(q, centers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if accs := w.discoverExtensions(q, centers); len(accs) == 0 {
			b.Fatal("no extensions discovered")
		}
	}
}
