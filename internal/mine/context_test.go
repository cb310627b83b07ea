package mine

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/pattern"
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
// which is all a job does before it mines.
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

// whole is everything a Result holds that a shared context could disturb:
// the fingerprint (Σ, TopK, every Set and qCenters) and the work counters.
func whole(res *Result) string {
	return fmt.Sprintf("%sops=%v max=%d capped=%d iso=%d bisim=%d",
		fingerprint(res), res.WorkerOps, res.MaxWorkerOp, res.Capped, res.IsoChecks, res.BisimSkips)
}

// TestContextDiscoveryMemo pins the discovery memo a Context shares between
// runs: every run on a shared context equals a run on a fresh one, in the
// whole Result, however many runs of other predicates, σ values or worker
// counts went before — and the memo serves some of them.
func TestContextDiscoveryMemo(t *testing.T) {
	for _, wl := range []struct {
		name  string
		build func(*graph.Symbols) *graph.Graph
		preds func(*graph.Symbols) []core.Predicate
	}{
		{"gplus-600", func(s *graph.Symbols) *graph.Graph { return gen.Gplus(s, gen.DefaultGplus(600, 1)) }, gen.GplusPredicates},
		{"pokec-300", func(s *graph.Symbols) *graph.Graph { return gen.Pokec(s, gen.DefaultPokec(300, 5)) }, gen.PokecPredicates},
	} {
		syms := graph.NewSymbols()
		g, preds := wl.build(syms), wl.preds(syms)
		for _, embedCap := range []int{64, 1} {
			for _, n := range []int{1, 2, 3, 8} {
				t.Run(fmt.Sprintf("%s/cap=%d/n=%d", wl.name, embedCap, n), func(t *testing.T) {
					opts := Options{K: 5, D: 2, Lambda: 0.5, N: n, MaxEdges: 2, EmbedCap: embedCap, MaxCandidatesPerRound: 40}
					shared := NewContext(g, preds[0].XLabel, opts)
					for _, sigma := range []int{2, 5} {
						for _, pred := range preds {
							o := opts
							o.Sigma = sigma
							want := whole(must(DMineCtx(NewContext(g, pred.XLabel, o), pred, o)))
							if got := whole(must(DMineCtx(shared, pred, o))); got != want {
								t.Fatalf("σ=%d %v: shared context mines\n%s\nfresh one\n%s", sigma, pred, got, want)
							}
						}
					}
					if parents, ids, hits := shared.DiscoveryStats(); hits == 0 || parents == 0 || ids == 0 {
						t.Fatalf("memo stored %d parents (%d IDs) and served %d discoveries", parents, ids, hits)
					}
				})
			}
		}
	}
}

// TestDiscoveryMemoKeysFrontier: one parent reaches a worker index with two
// frontiers; each gets its own discovery. A key without the centres would
// serve the second the first's.
func TestDiscoveryMemoKeysFrontier(t *testing.T) {
	g, preds, opts := contextFixture(t)
	pred := preds[0]
	ctx := NewContext(g, pred.XLabel, opts)
	q := pattern.New(g.Symbols())
	q.X = q.AddNodeL(pred.XLabel)
	cands := g.NodesWithLabel(pred.XLabel)
	shared := &worker{g: g, pred: pred, d: opts.D, embedCap: 64, disc: ctx.memo()}
	fresh := &worker{g: g, pred: pred, d: opts.D, embedCap: 64, disc: &discMemo{}}
	for _, frontier := range [][]graph.NodeID{cands, cands[:len(cands)/2]} {
		got := slices.Clone(shared.discover(q, frontier))
		want := fresh.discover(q, frontier)
		if !slices.EqualFunc(got, want, func(a, b extAcc) bool { return a.ext == b.ext && slices.Equal(a.centers, b.centers) }) {
			t.Fatalf("frontier of %d centres: memo serves %d extensions, discovery finds %d", len(frontier), len(got), len(want))
		}
	}
	if parents, _, hits := ctx.DiscoveryStats(); parents != 2 || hits != 0 {
		t.Fatalf("memo stored %d parents and served %d, want 2 and 0", parents, hits)
	}
	// A full memo stores nothing and still answers from discovery.
	full := &worker{g: g, pred: pred, d: opts.D, embedCap: 64, disc: &discMemo{}}
	if got := full.discover(q, cands); len(got) == 0 || full.disc.parents != 0 || full.disc.ids != 0 {
		t.Fatalf("memo at its bound: %d extensions, %d parents stored", len(got), full.disc.parents)
	}
}

// TestConcurrentPredicatesSharedContext: two goroutines mine different
// predicates on one context at once, storing into and serving from one memo;
// each equals a run on a fresh context. The assertion that matters is -race.
func TestConcurrentPredicatesSharedContext(t *testing.T) {
	g, preds, opts := contextFixture(t)
	ctx := NewContext(g, preds[0].XLabel, opts)
	want := make([]string, 2)
	for i := range want {
		want[i] = whole(must(DMineCtx(NewContext(g, preds[i].XLabel, opts), preds[i], opts)))
	}
	got := make([]string, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				got[i] = whole(must(DMineCtx(ctx, preds[i], opts)))
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("predicate %d on the shared context differs from a fresh one", i)
		}
	}
}
