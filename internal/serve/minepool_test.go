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

// TestMinePoolRoundReuse is the round-reuse stress of the accumulators
// parked on a cached context: two sequential mine jobs over one recycled
// worker set — the second run inherits the first's grown arenas, memoized
// probes and intern tables — must both match a fresh run. CI runs this
// package under -race, which additionally asserts the park/acquire handoff
// is clean.
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

	cache := NewMineContextCache(4)
	key := MineCtxKey{Gen: 1, XLabel: pred.XLabel, D: opts.D, N: opts.N}
	entry := func(key MineCtxKey) *mineCtxEntry {
		e, _ := cache.GetOrBuild(key, func() *mine.Context { return ctx })
		return e
	}
	e := entry(key)
	sh := cache.acquire(e)
	res, err = sh.DMine(pred, opts)
	if got := resultFingerprint(t, res, err); got != want {
		t.Fatalf("first pooled job differs from fresh run:\n%s\nvs\n%s", got, want)
	}
	cache.park(e, sh)
	sh2 := cache.acquire(entry(key))
	if sh2 != sh {
		t.Fatal("second job did not reuse the parked worker set")
	}
	res, err = sh2.DMine(pred, opts)
	if got := resultFingerprint(t, res, err); got != want {
		t.Fatalf("recycled-worker-set job differs from fresh run:\n%s\nvs\n%s", got, want)
	}
	cache.park(e, sh2)
	if st := cache.PoolStats(); st.Gets != 2 || st.Reuses != 1 || st.Parked != 1 {
		t.Fatalf("pool stats: %+v", st)
	}

	// Whatever drops the context drops its parked sets with it — a purge
	// (snapshot swap), a Shrink under the hard memory watermark, a Discard —
	// and a job that was in flight across the drop parks onto the dead
	// entry, not back into the cache.
	for name, drop := range map[string]func(){
		"Purge":   func() { cache.Purge() },
		"Shrink":  func() { cache.Shrink() },
		"Discard": func() { cache.Discard(key) },
	} {
		e := entry(key)
		inFlight := cache.acquire(e)
		cache.park(e, cache.acquire(e))
		if st := cache.PoolStats(); st.Parked == 0 {
			t.Fatalf("%s: nothing parked before the drop", name)
		}
		drop()
		if st := cache.PoolStats(); st.Parked != 0 {
			t.Fatalf("parked sets survive %s: %+v", name, st)
		}
		cache.park(e, inFlight)
		if st := cache.PoolStats(); st.Parked != 0 {
			t.Fatalf("park after %s re-inserted a set: %+v", name, st)
		}
	}
}
