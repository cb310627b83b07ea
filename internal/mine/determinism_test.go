package mine

import (
	"fmt"
	"strings"
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
)

// fingerprint serializes everything a caller can observe about a result —
// rounds, counters, objective, and for every rule its key, stats, conf and
// full match set — so two results compare byte-identically.
func fingerprint(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d generated=%d kept=%d pruned=%d F=%.17g\n",
		res.Rounds, res.Generated, res.Kept, res.Pruned, res.F)
	dump := func(name string, ms []Mined) {
		fmt.Fprintf(&b, "%s %d\n", name, len(ms))
		for _, mm := range ms {
			// "ext=true" is the extendable flag every rule carried when the
			// pinned digests were recorded; it was never false.
			fmt.Fprintf(&b, "  %s stats=%+v conf=%.17g set=%v q=%v ext=true\n",
				mm.Key(), mm.Stats, mm.Conf, mm.Set, mm.qCenters)
		}
	}
	dump("topk", res.TopK)
	dump("all", res.All)
	return b.String()
}

// sumOps is the match operations of all workers together. Each is counted
// per owned centre, so the sum does not depend on how the centres are
// placed: a worker that also mined another's centres would raise it.
func sumOps(res *Result) int64 {
	var n int64
	for _, op := range res.WorkerOps {
		n += op
	}
	return n
}

// TestDMineDeterministicAcrossWorkerCounts is the safety net for the
// sharded-assembly refactor: on fixed seeds, DMine must return byte-
// identical results — keys, stats, sets, rounds — for any worker count,
// and its workers must do the same match operations in all.
// EmbedCap is raised beyond every center's embedding count so this test
// isolates the assembly path; TestEmbedCapDeterministicAcrossWorkerCounts
// covers the truncating case.
func TestDMineDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, wl := range []struct {
		name  string
		users int
		seed  int64
		sigma int
	}{
		{"pokec-300-seed5", 300, 5, 3},
		{"pokec-200-seed9", 200, 9, 2},
	} {
		t.Run(wl.name, func(t *testing.T) {
			syms := graph.NewSymbols()
			g := gen.Pokec(syms, gen.DefaultPokec(wl.users, wl.seed))
			pred := gen.PokecPredicates(syms)[0]
			opts := Options{
				K: 6, Sigma: wl.sigma, D: 2, Lambda: 0.5,
				MaxEdges: 2, EmbedCap: 1 << 20,
			}

			var base string
			var baseOps int64
			for _, n := range []int{1, 2, 3, 8} {
				o := opts
				o.N = n
				res := DMine(g, pred, o)
				got, ops := fingerprint(res), sumOps(res)
				if n == 1 {
					base, baseOps = got, ops
					continue
				}
				if got != base {
					t.Fatalf("N=%d result differs from N=1:\n--- N=1 ---\n%s--- N=%d ---\n%s",
						n, base, n, got)
				}
				if ops != baseOps {
					t.Fatalf("N=%d: workers did %d match operations in all, N=1 did %d", n, ops, baseOps)
				}
			}
			// DMineNo must be equally deterministic across worker counts.
			var noBase string
			for _, n := range []int{1, 3} {
				o := opts
				o.N = n
				got := fingerprint(DMineNo(g, pred, o))
				if n == 1 {
					noBase = got
				} else if got != noBase {
					t.Fatalf("DMineNo N=%d result differs from N=1", n)
				}
			}
		})
	}
}

// TestDMineDeterministicAcrossWorkerCountsG1 covers the paper's restaurant
// fixture with the same cross-N contract.
func TestDMineDeterministicAcrossWorkerCountsG1(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	opts := baseOpts()
	opts.EmbedCap = 1 << 20
	var base string
	for _, n := range []int{1, 2, 3, 8} {
		o := opts
		o.N = n
		got := fingerprint(DMine(f.G, pred, o))
		if n == 1 {
			base = got
		} else if got != base {
			t.Fatalf("N=%d result differs from N=1:\n%s\nvs\n%s", n, base, got)
		}
	}
}
