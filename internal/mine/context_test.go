package mine

import (
	"slices"
	"sync"
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/partition"
)

// contextFixture is the shared differential workload: a seeded Pokec-like
// graph and every Pokec predicate (all over the same x-label "user"), so
// one Context is exercised across multiple predicates.
func contextFixture(t testing.TB) (*graph.Graph, []core.Predicate, Options) {
	t.Helper()
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(250, 11))
	opts := Options{
		K: 5, Sigma: 2, D: 2, Lambda: 0.5, N: 3,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}
	preds := gen.PokecPredicates(syms)
	if len(preds) < 2 {
		t.Fatal("fixture needs at least two predicates")
	}
	return g, preds, opts
}

// TestDMineCtxMatchesDMine is the differential half of the mine-context
// cache contract: a run on a prebuilt (cached) Context must be
// byte-identical to a fresh DMine, and the same Context must be reusable
// for repeated runs without drift — exactly what the serving cache does
// when the same mine job is posted twice.
func TestDMineCtxMatchesDMine(t *testing.T) {
	g, preds, opts := contextFixture(t)
	for _, pred := range preds[:2] {
		want := fingerprint(DMine(g, pred, opts))
		ctx := NewContext(g, pred.XLabel, opts)
		for run := 0; run < 2; run++ {
			got := fingerprint(must(DMineCtx(ctx, pred, opts)))
			if got != want {
				t.Fatalf("run %d on cached context differs from fresh DMine:\n--- fresh ---\n%s--- cached ---\n%s",
					run, want, got)
			}
		}
	}
}

// TestDMineMultiMatchesIndependentRuns checks DMineMulti end to end: the
// per-x-label context sharing (and the pooled workers successive predicates
// inherit) must not change any result relative to independent DMine calls,
// and the result list must still deduplicate predicates preserving
// first-occurrence order.
func TestDMineMultiMatchesIndependentRuns(t *testing.T) {
	g, preds, opts := contextFixture(t)
	// Duplicate the first predicate to exercise the dedup path too.
	input := append(append([]core.Predicate(nil), preds...), preds[0])

	got := must(DMineMulti(g, input, opts))
	var wantOrder []core.Predicate
	seen := map[core.Predicate]bool{}
	for _, p := range input {
		if !seen[p] {
			seen[p] = true
			wantOrder = append(wantOrder, p)
		}
	}
	if len(got) != len(wantOrder) {
		t.Fatalf("DMineMulti returned %d results, want %d", len(got), len(wantOrder))
	}
	for i, mr := range got {
		if mr.Pred != wantOrder[i] {
			t.Fatalf("result %d is for %+v, want %+v", i, mr.Pred, wantOrder[i])
		}
		want := fingerprint(DMine(g, mr.Pred, opts))
		if fp := fingerprint(mr.Result); fp != want {
			t.Fatalf("DMineMulti result %d differs from independent DMine:\n--- independent ---\n%s--- multi ---\n%s",
				i, want, fp)
		}
	}
}

// TestConcurrentDMineSharedContext stresses the Context immutability
// contract: many concurrent DMineCtx runs over one shared Context (each
// with its own miner state) must all produce the byte-identical result.
// CI runs this package under -race, which is the real assertion.
func TestConcurrentDMineSharedContext(t *testing.T) {
	g, preds, opts := contextFixture(t)
	pred := preds[0]
	want := fingerprint(DMine(g, pred, opts))
	ctx := NewContext(g, pred.XLabel, opts)

	const goroutines = 8
	results := make([]string, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = fingerprint(must(DMineCtx(ctx, pred, opts)))
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if got != want {
			t.Fatalf("goroutine %d result differs from fresh DMine", i)
		}
	}
}

// TestDMineCtxRejectsMismatchedContext pins the guard: running against a
// context built for different parameters is a programming error, reported
// as an error (never a partial result).
func TestDMineCtxRejectsMismatchedContext(t *testing.T) {
	g, preds, opts := contextFixture(t)
	pred := preds[0]
	ctx := NewContext(g, pred.XLabel, opts)
	bad := opts
	bad.D = opts.D + 1
	res, err := DMineCtx(ctx, pred, bad)
	if err == nil {
		t.Fatal("DMineCtx with mismatched d did not error")
	}
	if res != nil {
		t.Fatal("DMineCtx with mismatched d returned a result")
	}
}

// TestNewContextIsConstantWork: a context is the graph's own candidate index
// plus three numbers. Nothing proportional to the graph — no partition, no
// fragment copy, no translation table — may be reachable from building one,
// which is all a non-fleet job does before it mines.
func TestNewContextIsConstantWork(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Gplus(syms, gen.DefaultGplus(5000, 1))
	pred := gen.GplusPredicates(syms)[0]
	opts := Options{K: 8, Sigma: 4, D: 2, N: 8}
	g.Freeze()
	if allocs := testing.AllocsPerRun(10, func() { NewContext(g, pred.XLabel, opts) }); allocs > 1 {
		t.Fatalf("NewContext allocates %v times on a 5000-user graph, want the Context alone", allocs)
	}
}

// TestWireFragmentBuiltOncePerContext: the fleet path partitions and
// encodes on first use and every later caller, concurrent ones included,
// gets the same bytes. Together the decoded fragments own every candidate
// once.
func TestWireFragmentBuiltOncePerContext(t *testing.T) {
	g, preds, opts := contextFixture(t)
	ctx := NewContext(g, preds[0].XLabel, opts)

	const callers = 8
	datas := make([][][]byte, callers)
	var wg sync.WaitGroup
	for c := range datas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opts.N; i++ {
				datas[c] = append(datas[c], ctx.WireFragment(i))
			}
		}()
	}
	wg.Wait()

	var owned []graph.NodeID
	for i := 0; i < opts.N; i++ {
		data := ctx.WireFragment(i)
		for c := range datas {
			if &datas[c][i][0] != &data[0] {
				t.Fatalf("fragment %d: caller %d got its own encoding", i, c)
			}
		}
		frag, _, err := partition.DecodeFragment(data, g.Symbols())
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		for _, c := range frag.Centers {
			owned = append(owned, frag.Global(c))
		}
	}
	slices.Sort(owned)
	if !slices.Equal(owned, g.NodesWithLabel(preds[0].XLabel)) {
		t.Errorf("wire fragments own %d centers, not the %d candidates once each",
			len(owned), len(g.NodesWithLabel(preds[0].XLabel)))
	}
}
