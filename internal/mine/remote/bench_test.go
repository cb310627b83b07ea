package remote

import (
	"testing"
	"time"

	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// BenchmarkDMineDistributed times one full distributed mining job over a
// 4-worker loopback-TCP fleet: per-worker job setup (fragment ship and
// decode), the BSP supersteps with their frame round trips, and the
// coordinator's assemble/diversify reduce. The in-process equivalent of
// this workload is BenchmarkDMine (internal/mine); the gap between the two
// is the wire overhead. Recorded in BENCH_mine.json by `make bench`.
func BenchmarkDMineDistributed(b *testing.B) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(500, 7))
	pred := gen.PokecPredicates(syms)[0]
	opts := mine.Options{K: 10, Sigma: 5, D: 2, Lambda: 0.5, N: 4, MaxEdges: 2}.Defaults()

	addrs := startWorkers(b, opts.N, ServerOptions{})
	conns, err := DialFleet(addrs, DialOptions{StepTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	defer CloseAll(conns)
	ctx := mine.NewContext(g, pred.XLabel, opts)
	// Partition and encode outside the timer: they happen once per context,
	// a job's own cost is the ship, the supersteps and the reduce.
	ctx.WireFragment(0)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Mine(ctx, pred, opts, conns)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.TopK) == 0 {
			b.Fatal("no rules mined")
		}
	}
}
