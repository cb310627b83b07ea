package mine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
//
// g1/visit is the one cell the Lemma 3 reduction rules reached (N =
// supp(q)·supp(q̄) = 5·1 there): they dropped 205 rules from Σ that could
// never enter the top-k, without saving a round, a candidate or an
// isomorphism check. Its digest is what 65d882b, the last commit with the
// rules, mined with Options.Reduction off (it was d42ee99cc2c12e843bba0c8b
// with them on: Kept 75, Pruned 205); lemma3Goldens pins that the top-k and
// F did not move.
var goldenDigests = map[string]string{
	"g1/visit":              "e2ec032cceeb69806302e4ce",
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

// lemma3Cells are the runs whose outcome the deleted Lemma 3 reduction
// rules could reach. Below λ = 1 that is g1/visit alone (see goldenDigests).
// At λ = 1, a balance no other test mines at, the rules stopped a run whose
// queue was all-disjoint after round 1: the Google+-like golden cells, and
// the identify corpus' Google+-like graph at the ablation benchmark's
// options.
func lemma3Cells() []goldenCell {
	var cells []goldenCell
	for _, c := range goldenMatrix() {
		switch {
		case c.name == "g1/visit":
			cells = append(cells, c)
		case strings.HasPrefix(c.name, "gplus"):
			c.name += "/lambda=1"
			c.opts.Lambda = 1
			cells = append(cells, c)
		}
	}
	syms := graph.NewSymbols()
	gplus := gen.Gplus(syms, gen.DefaultGplus(600, 1))
	return append(cells, goldenCell{"gplus-600-seed1/pred0/lambda=1", gplus, gen.GplusPredicates(syms)[0], Options{
		K: 10, Sigma: 6, D: 2, Lambda: 1, MaxEdges: 3, MaxCandidatesPerRound: 60,
	}.WithOptimizations()})
}

// lemma3Goldens are F and the top-k rules (run id and content key, sorted)
// of lemma3Cells, recorded at 65d882b with the reduction rules on. The rules
// were sound — they only dropped what could never enter Lk — so mining
// without them must return the same top-k, from a run that is longer at
// λ = 1 (three rounds instead of one on the 600-user graph).
var lemma3Goldens = map[string][]string{
	"g1/visit": {"F=1.5333333333333332",
		"R00037 b6efda0bec5880ba77b244b4", "R00038 d12b15d286cca5e6130de5ef",
		"R00067 ecc69bbea76f48fedc813ad4", "R00068 abebfa4ff4f9acaf0467bb0a"},
	"gplus-400-seed1/pred0/lambda=1": {"F=6.0000000000000009",
		"R00002 371e08324c7d40cf1bff0390", "R00003 a70edadf64dc868e852b4010",
		"R00004 1496e0d99aa02042e7e95ab7", "R00005 7ac849397f822215bc3dd5e7",
		"R00006 11ad505bf6695f5b2fbbea0a", "R00007 91c5cce7931b98ff92fda960"},
	"gplus-400-seed1/pred1/lambda=1": {"F=5.9555555555555566",
		"R00002 73baa9815e3e76bf1e8b4da0", "R00003 8c825601a809c7f52302abd9",
		"R00004 a76697684957ca42e4a0c11f", "R00005 719622ab5d78592b62b26ff8",
		"R00006 65a93457d541cadae63b0fad", "R00022 a1c791afa3b9afbe8c9ca304"},
	"gplus-400-seed1/pred2/lambda=1": {"F=6.0000000000000009",
		"R00002 e4e862c920838283f5c83625", "R00003 e632d3e67268d837d1d752dc",
		"R00004 2e0dd738b1d2a574852a5b6a", "R00005 e942a241111ce371b4c645e9",
		"R00006 403c225d1844314175c36ced", "R00007 902628c7293bf854dc060e3b"},
	"gplus-600-seed1/pred0/lambda=1": {"F=9.7322433682579561",
		"R00002 371e08324c7d40cf1bff0390", "R00003 1496e0d99aa02042e7e95ab7",
		"R00005 1f913278bf058b4083eddcdd", "R00006 fba076ad5f57f21fead70ea9",
		"R00007 c162f01e34187f231ef9488c", "R00008 1cc58ca59d62453aef569ac7",
		"R00009 11b167cbc3917fe801fa32a8", "R00010 968313d17f04c348806d6df4",
		"R00011 e43974ac5f5d599cadac48b6", "R00012 4fb2b7f40a6760c5fc33d3a1"},
}

func TestDMineTopKWithoutLemma3(t *testing.T) {
	for _, c := range lemma3Cells() {
		for _, n := range []int{1, 2, 3, 8} {
			o := c.opts
			o.N = n
			res := DMine(c.g, c.pred, o)
			rules := make([]string, 0, len(res.TopK))
			for _, mm := range res.TopK {
				rules = append(rules, mm.Key()+" "+mm.Rule.Key())
			}
			slices.Sort(rules)
			got := append([]string{fmt.Sprintf("F=%.17g", res.F)}, rules...)
			if want := lemma3Goldens[c.name]; !slices.Equal(got, want) {
				t.Errorf("%s N=%d: top-k\n %s\nwant\n %s", c.name, n, strings.Join(got, "\n "), strings.Join(want, "\n "))
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
