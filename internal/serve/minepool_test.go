package serve

import (
	"fmt"
	"strings"
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// resultFingerprint serializes the exported surface of a mining result so
// runs can be compared byte-for-byte.
func resultFingerprint(t *testing.T, res *mine.Result, err error) string {
	t.Helper()
	if err != nil {
		t.Fatalf("mine: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d generated=%d kept=%d pruned=%d F=%.17g\n",
		res.Rounds, res.Generated, res.Kept, res.Pruned, res.F)
	dump := func(name string, ms []mine.Mined) {
		fmt.Fprintf(&b, "%s %d\n", name, len(ms))
		for _, mm := range ms {
			fmt.Fprintf(&b, "  %s %s stats=%+v conf=%.17g set=%v\n",
				mm.Key(), mm.Rule, mm.Stats, mm.Conf, mm.Set)
		}
	}
	dump("topk", res.TopK)
	dump("all", res.All)
	return b.String()
}

// TestMinePoolRoundReuse is the round-reuse stress of the accumulator pool:
// two sequential mine jobs over one recycled worker set — the second run
// inherits the first's grown arenas, memoized probes and intern tables —
// must both match a fresh run. CI runs this package under -race, which
// additionally asserts the park/acquire handoff is clean.
func TestMinePoolRoundReuse(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(300, 7))
	pred := gen.PokecPredicates(syms)[0]
	opts := mine.Options{
		K: 5, Sigma: 2, D: 2, Lambda: 0.5, N: 2, MaxEdges: 2,
	}.WithOptimizations().Defaults()
	ctx := mine.NewContext(g, pred.XLabel, opts)
	res, err := mine.DMineCtx(ctx, pred, opts)
	want := resultFingerprint(t, res, err)

	pool := newMinePool(2)
	sh, ep1 := pool.acquire(ctx)
	res, err = sh.DMine(pred, opts)
	if got := resultFingerprint(t, res, err); got != want {
		t.Fatalf("first pooled job differs from fresh run:\n%s\nvs\n%s", got, want)
	}
	pool.park(sh, ep1, true)
	sh2, ep2 := pool.acquire(ctx)
	if sh2 != sh {
		t.Fatal("second job did not reuse the parked worker set")
	}
	res, err = sh2.DMine(pred, opts)
	if got := resultFingerprint(t, res, err); got != want {
		t.Fatalf("recycled-worker-set job differs from fresh run:\n%s\nvs\n%s", got, want)
	}
	pool.park(sh2, ep2, true)
	if st := pool.stats(); st.Gets != 2 || st.Reuses != 1 || st.Parked != 1 {
		t.Fatalf("pool stats: %+v", st)
	}
	// A purge (snapshot swap) must drop the parked set — and a job that was
	// in flight across the purge must not re-insert its set (stale epoch),
	// nor may a job whose context the LRU evicted (live=false).
	sh3, ep3 := pool.acquire(ctx)
	pool.purge()
	if st := pool.stats(); st.Parked != 0 {
		t.Fatalf("parked sets survive purge: %+v", st)
	}
	pool.park(sh3, ep3, true)
	if st := pool.stats(); st.Parked != 0 {
		t.Fatalf("stale-epoch park was accepted: %+v", st)
	}
	sh4, ep4 := pool.acquire(ctx)
	pool.park(sh4, ep4, false)
	if st := pool.stats(); st.Parked != 0 {
		t.Fatalf("park of an evicted context was accepted: %+v", st)
	}
}
