package mine

import (
	"flag"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
)

// arenaFixture is the workload of the arena golden tests: a
// seeded Pokec-like graph with enough structure that every arena lane (all
// three message lanes, assembly unions, frontier lists) carries real data
// over multiple rounds.
func arenaFixture(t testing.TB) (*graph.Graph, []Options) {
	t.Helper()
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(250, 11))
	base := Options{
		K: 6, Sigma: 2, D: 2, Lambda: 0.5,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}
	var opts []Options
	for _, n := range []int{1, 2, 3, 8} {
		o := base
		o.N = n
		opts = append(opts, o)
	}
	return g, opts
}

// TestMain turns the arena poison on for every test of the package, so each
// suite that mines — the golden matrix, the determinism, cancel, shared and
// loopback-fleet differentials, under `make race` too — doubles as a lifetime
// check: a view read after its lane's reset holds NodeID(-1). Benchmark runs
// (-bench) leave it off, so BENCH_mine.json times the production path.
func TestMain(m *testing.M) {
	flag.Parse()
	poisonArenas = flag.Lookup("test.bench").Value.String() == ""
	m.Run()
}

// arenasOffGoldens are digests of runs made in the arenas-off mode, recorded
// at 04ded92 — the last commit that had that option, under which every
// center set was a fresh heap slice no reset could touch. They are what
// the arenas-on/arenas-off differentials compared against, frozen: an
// aliasing or premature-reset bug in the recycled lanes that survives the
// poison still has to reproduce these bytes. Like goldenDigests they were
// re-recorded at 1961df2 with digest's IsoChecks/BisimSkips suffix dropped
// and nothing else changed.
var arenasOffGoldens = map[string]string{
	// arenaFixture, Pokec predicates 0-4 (N ∈ {1,2,3,8} agree on predicate 0).
	"arena/pred0": "fc9b79578a484fd4968341fc",
	"arena/pred1": "7dd3197baf10602bd80b914f",
	"arena/pred2": "35a71423dc0937b4af6e23f0",
	// pred3 was 6749ee3d980e1b9173fbbcd4 while Lemma 3 existed: in the last
	// round its Rule 2 marked 18 rules "not to be extended" that no round was
	// left to extend, so Σ, top-k and F were the same and only Result.Pruned
	// (18) differed. This is what 65d882b mined with Options.Reduction off.
	"arena/pred3": "cdccf2f2336bf5e2eb982c16",
	"arena/pred4": "d8b3e3df207909e8830eea8e",
	// contextFixture predicate 0: fresh runs and reruns after a cancel at
	// every poll budget, N ∈ {1,2,3,8}.
	"cancel": "407b8b80e7ad97e856b84a97",
	// Pokec 200/9, N = 3: DMineCtx and DMineDistributed over loopbackConns.
	"loopback": "fb1b05bf88c62880c1f4d0cb",
}

// TestDMineArenasOnOffIdentity pins the recycled lanes against the
// arenas-off goldens for every worker count.
func TestDMineArenasOnOffIdentity(t *testing.T) {
	g, optsList := arenaFixture(t)
	pred := gen.PokecPredicates(g.Symbols())[0]
	for _, o := range optsList {
		if got, want := digest(DMine(g, pred, o)), arenasOffGoldens["arena/pred0"]; got != want {
			t.Errorf("N=%d: digest %s, arenas-off golden %s", o.N, got, want)
		}
	}
}

// TestDMineMultiArenasOnOffIdentity extends the pin to DMineMulti: each
// predicate's run inherits the pooled workers (arenas and all) the previous
// one released, which is exactly the lifetime the recycling discipline must
// survive.
func TestDMineMultiArenasOnOffIdentity(t *testing.T) {
	g, optsList := arenaFixture(t)
	preds := gen.PokecPredicates(g.Symbols())
	// N=2: sharded assembly and real message traffic.
	res := must(DMineMulti(g, preds, optsList[1]))
	if len(res) != 5 {
		t.Fatalf("%d results, want one per arena/pred golden", len(res))
	}
	for i, r := range res {
		if got, want := digest(r.Result), arenasOffGoldens[fmt.Sprintf("arena/pred%d", i)]; got != want {
			t.Errorf("predicate %d: digest %s, arenas-off golden %s", i, got, want)
		}
	}
}

// TestWorkerPoolKeepsOneRunsWorkers pins the pool's policy: a finished run
// leaves its workers idle; the next like run mines on those very workers
// (and their grown arenas) instead of building new ones; runs finishing
// together leave no more than one of them would (or GOMAXPROCS).
func TestWorkerPoolKeepsOneRunsWorkers(t *testing.T) {
	g, optsList := arenaFixture(t)
	pred := gen.PokecPredicates(g.Symbols())[0]
	idle := func() map[*worker]bool {
		workerPool.mu.Lock()
		defer workerPool.mu.Unlock()
		set := make(map[*worker]bool)
		for _, w := range workerPool.idle {
			set[w] = true
		}
		return set
	}
	keep := max(8, runtime.GOMAXPROCS(0))

	workerPool.mu.Lock()
	workerPool.idle = nil
	workerPool.mu.Unlock()
	DMine(g, pred, optsList[3]) // N = 8
	first := idle()
	if len(first) != keep {
		t.Fatalf("%d idle workers after an 8-worker run, want %d", len(first), keep)
	}
	DMine(g, pred, optsList[3])
	if again := idle(); !maps.Equal(again, first) {
		t.Fatal("the next 8-worker run did not mine on the idle workers it found")
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			DMine(g, pred, optsList[3])
		}()
	}
	wg.Wait()
	if n := len(idle()); n != keep {
		t.Fatalf("%d idle workers after three concurrent 8-worker runs, want %d", n, keep)
	}
}

// TestArenaPoisonOverwritesReclaimedRegion pins the oracle itself: under the
// poison a view carved before a reset reads NodeID(-1) after it.
func TestArenaPoisonOverwritesReclaimedRegion(t *testing.T) {
	if !poisonArenas {
		t.Skip("poison is off under -bench")
	}
	var a nodeArena
	mark := a.mark()
	a.pushAll([]graph.NodeID{3, 1, 2})
	view := a.take(mark)
	a.reset()
	if !slices.Equal(view, []graph.NodeID{-1, -1, -1}) {
		t.Fatalf("view after reset = %v, want poisoned", view)
	}
	a.push(7)
	if got := a.take(a.mark() - 1); !slices.Equal(got, []graph.NodeID{7}) {
		t.Fatalf("arena unusable after a poisoned reset: %v", got)
	}
}

// TestEmbedCapDeterministicAcrossWorkerCounts pins the EmbedCap-
// independence contract: embeddings are enumerated in a canonical global-ID
// order (match.Options.Canonical over partition's sorted fragment node
// order), so even a cap of 1 embedding per center — which aggressively
// truncates discovery — must see the same embeddings, and produce the same
// result, on every fragment layout.
func TestEmbedCapDeterministicAcrossWorkerCounts(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(300, 5))
	pred := gen.PokecPredicates(syms)[0]
	base := Options{
		K: 6, Sigma: 3, D: 2, Lambda: 0.5, MaxEdges: 2, EmbedCap: 1,
	}

	// Evidence the cap actually bites on this workload: uncapped mining
	// must see strictly more candidates. Without this the test would pass
	// vacuously.
	uncapped := base
	uncapped.EmbedCap = 1 << 20
	uncapped.N = 1
	first := base
	first.N = 1
	capRes := DMine(g, pred, first)
	if full := DMine(g, pred, uncapped); full.Generated <= capRes.Generated {
		t.Fatalf("EmbedCap=1 did not truncate discovery (capped %d vs uncapped %d candidates)",
			capRes.Generated, full.Generated)
	}

	want := fingerprint(capRes)
	for _, n := range []int{2, 8} {
		o := base
		o.N = n
		if got := fingerprint(DMine(g, pred, o)); got != want {
			t.Fatalf("EmbedCap=1, N=%d differs from N=1:\n--- N=1 ---\n%s--- N=%d ---\n%s",
				n, want, n, got)
		}
	}
}
