package mine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
)

// goldenCell is one (graph, predicate) cell of the determinism matrix; every
// cell is mined at N ∈ {1, 2, 3, 8}.
type goldenCell struct {
	name string
	g    *graph.Graph
	pred core.Predicate
	opts Options
}

// goldenMatrix builds the determinism-matrix graphs — the paper's G1, a
// Pokec-like and a Google+-like graph — with three predicates on each
// synthetic one. The Pokec cells lift EmbedCap out of the way; the Google+
// cells keep the truncating default, so the canonical-enumeration contract
// is part of the digest.
func goldenMatrix() []goldenCell {
	var cells []goldenCell
	syms := graph.NewSymbols()
	g1Opts := baseOpts()
	g1Opts.EmbedCap = 1 << 20
	cells = append(cells, goldenCell{"g1/visit", gen.G1(syms).G, gen.VisitPredicate(syms), g1Opts})

	syms = graph.NewSymbols()
	pokec := gen.Pokec(syms, gen.DefaultPokec(300, 5))
	for i, pred := range gen.PokecPredicates(syms)[:3] {
		cells = append(cells, goldenCell{fmt.Sprintf("pokec-300-seed5/pred%d", i), pokec, pred, Options{
			K: 6, Sigma: 3, D: 2, Lambda: 0.5, MaxEdges: 2, EmbedCap: 1 << 20,
		}.WithOptimizations()})
	}

	syms = graph.NewSymbols()
	gplus := gen.Gplus(syms, gen.DefaultGplus(400, 1))
	for i, pred := range gen.GplusPredicates(syms)[:3] {
		cells = append(cells, goldenCell{fmt.Sprintf("gplus-400-seed1/pred%d", i), gplus, pred, Options{
			K: 6, Sigma: 3, D: 2, Lambda: 0.5, MaxEdges: 2,
		}.WithOptimizations()})
	}
	return cells
}

// digest hashes everything a caller can observe about a result that must
// not depend on the worker layout: the fingerprint (rule ids, stats, conf,
// sets, top-k order, F, Generated/Kept/Pruned), the pruning counters the
// fingerprint leaves out, and every rule's content key. WorkerOps is
// layout-dependent by definition and stays out.
func digest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%siso=%d bisim=%d\n", fingerprint(res), res.IsoChecks, res.BisimSkips)
	for _, mm := range res.All {
		fmt.Fprintf(h, "%s %s\n", mm.Key(), mm.Rule.Key())
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// goldenDigests were recorded at the commit before in-process mining moved
// from d-neighbourhood fragments to centre chunks over the shared graph
// (be83f32). Cross-N identity alone would not catch a change that moves
// every N together; these do.
var goldenDigests = map[string]string{
	"g1/visit":              "d42ee99cc2c12e843bba0c8b",
	"pokec-300-seed5/pred0": "e99257f3787511903f7e65d4",
	"pokec-300-seed5/pred1": "dca5598963ed4d32a5493f6a",
	"pokec-300-seed5/pred2": "0b6626978c67fa786e43c9db",
	"gplus-400-seed1/pred0": "0bd3c9391529bee4edef7c62",
	"gplus-400-seed1/pred1": "484e0ac22f86fd7082957195",
	"gplus-400-seed1/pred2": "d7a2e280cafebd44582ccdb6",
}

func TestDMineGoldenDigests(t *testing.T) {
	for _, c := range goldenMatrix() {
		for _, n := range []int{1, 2, 3, 8} {
			o := c.opts
			o.N = n
			res := DMine(c.g, c.pred, o)
			if len(res.All) == 0 {
				t.Fatalf("%s N=%d: mined nothing; the cell pins no behaviour", c.name, n)
			}
			if got, want := digest(res), goldenDigests[c.name]; got != want {
				t.Errorf("%s N=%d: digest %s, want %s", c.name, n, got, want)
			}
		}
	}
}

// overlayOps is a seeded delta batch touching every op kind: edge deletions
// and additions around existing nodes, new x-labelled nodes wired to
// existing neighbours, and a relabel into the x-label.
func overlayOps(g *graph.Graph, xLabel graph.Label, seed int64) []graph.DeltaOp {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	node := func() graph.NodeID { return graph.NodeID(rng.Intn(n)) }
	var ops []graph.DeltaOp
	for i := 0; i < n/10+3; i++ {
		v := node()
		out := g.Out(v)
		if len(out) == 0 {
			continue
		}
		e := out[rng.Intn(len(out))]
		if i%2 == 0 {
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaDelEdge, From: v, To: e.To, Label: e.Label})
		}
		// Re-home an edge of the same label onto another node with the old
		// target's label, so the new edge is one the miner can discover.
		if to := node(); g.Label(to) == g.Label(e.To) && !g.HasEdge(v, to, e.Label) {
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAddEdge, From: v, To: to, Label: e.Label})
		}
	}
	xs := g.NodesWithLabel(xLabel)
	for i := 0; i < 3; i++ {
		old := xs[rng.Intn(len(xs))]
		ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAddNode, Label: xLabel})
		added := graph.NodeID(n + i)
		for _, e := range g.Out(old) {
			ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAddEdge, From: added, To: e.To, Label: e.Label})
		}
	}
	if v := node(); g.Label(v) != xLabel {
		ops = append(ops, graph.DeltaOp{Kind: graph.DeltaSetLabel, Node: v, Label: xLabel})
	}
	return ops
}

// TestDMineOnOverlayMatchesCompactCopy: mining runs on the graph it is
// handed, so a delta overlay is mined as an overlay. It must mine exactly
// what its compacted (plain frozen) copy mines, for every cell and N.
func TestDMineOnOverlayMatchesCompactCopy(t *testing.T) {
	for i, c := range goldenMatrix() {
		ov, err := c.g.ApplyDelta(overlayOps(c.g, c.pred.XLabel, int64(i)))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !ov.Overlaid() {
			t.Fatalf("%s: delta produced no overlay", c.name)
		}
		plain := ov.CompactCopy()
		for _, n := range []int{1, 2, 3, 8} {
			o := c.opts
			o.N = n
			if got, want := digest(DMine(ov, c.pred, o)), digest(DMine(plain, c.pred, o)); got != want {
				t.Errorf("%s N=%d: overlay mines %s, its compact copy %s", c.name, n, got, want)
			}
		}
	}
}
