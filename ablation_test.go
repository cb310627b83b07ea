package gpar_test

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// DMine optimization (incremental diversification, Lemma 4 bisimulation
// prefilter, guided matching) toggled individually,
// the guided-search sketch depth for EIP, and guided against unguided
// matching in the identify kernel.

import (
	"fmt"
	"testing"

	"gpar/internal/bench"
	"gpar/internal/core"
	"gpar/internal/eip"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/mine"
	"gpar/internal/sketch"
)

// BenchmarkAblation_DMineOptimizations times the two Section 6
// optimizations that remain, together and alone, on each graph of the identify corpus
// at the figure-sweep options and on the end-to-end benchmark's mine-jobs
// shape (the Google+-like graph of 5 000 users, that workload's options).
// DESIGN.md, "What the Section 6 optimizations buy", has the table.
func BenchmarkAblation_DMineOptimizations(b *testing.B) {
	sc := benchScale()
	type ablationCase struct {
		name string
		g    *graph.Graph
		pred core.Predicate
		base mine.Options
	}
	var cases []ablationCase
	for _, c := range identifyCorpus(b, sc.PokecUsers) {
		sigma := sc.SigmaPokec[2]
		if c.name == "gplus" {
			sigma = sc.SigmaGplus[2]
		}
		cases = append(cases, ablationCase{c.name, c.g, c.pred, mine.Options{
			K: 10, Sigma: sigma, D: 2, Lambda: 0.5, N: 8,
			MaxEdges: 3, MaxCandidatesPerRound: 60,
		}})
	}
	jobs := gen.Gplus(graph.NewSymbols(), gen.DefaultGplus(5000, 1))
	cases = append(cases, ablationCase{"gplus-5000-jobs", jobs, gen.GplusPredicates(jobs.Symbols())[0], mine.Options{
		K: 8, Sigma: 4, D: 2, Lambda: 0.5, N: 2,
		MaxEdges: 2, MaxCandidatesPerRound: 40,
	}})
	variants := []struct {
		name string
		mod  func(o mine.Options) mine.Options
	}{
		{"all-on", func(o mine.Options) mine.Options { return o.WithOptimizations() }},
		{"all-off", func(o mine.Options) mine.Options { return o }},
		{"incremental-only", func(o mine.Options) mine.Options { o.Incremental = true; return o }},
		{"bisim-only", func(o mine.Options) mine.Options { o.BisimFilter = true; return o }},
	}
	for _, c := range cases {
		for _, v := range variants {
			opts := v.mod(c.base)
			b.Run(c.name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := mine.DMine(c.g, c.pred, opts)
					b.ReportMetric(float64(res.IsoChecks), "isoChecks")
					b.ReportMetric(float64(res.Kept), "kept")
					b.ReportMetric(float64(res.Capped), "capped")
				}
			})
		}
	}
}

func BenchmarkAblation_EIPSketchDepth(b *testing.B) {
	sc := benchScale()
	g, syms := bench.PokecGraph(sc.PokecUsers, sc.Seed)
	rules := gen.Rules(g, gen.PokecPredicates(syms)[0],
		gen.RuleGenParams{Count: 24, VP: 4, EP: 5, Seed: sc.Seed})
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("sketchK=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := eip.Match(g, rules, eip.Options{N: 8, Eta: 1.5, SketchK: k})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.MaxWorkerOp), "maxWorkerOps")
			}
		})
	}
}

// BenchmarkAblation_EmbedCap measures the cost/recall knob of extension
// discovery: the per-center embedding cap of algorithm DMine's localMine.
func BenchmarkAblation_EmbedCap(b *testing.B) {
	sc := benchScale()
	g, syms := bench.PokecGraph(sc.PokecUsers, sc.Seed)
	pred := gen.PokecPredicates(syms)[0]
	for _, cap := range []int{8, 32, 64, 256} {
		opts := mine.Options{
			K: 10, Sigma: sc.SigmaPokec[2], D: 2, Lambda: 0.5, N: 8,
			MaxEdges: 3, MaxCandidatesPerRound: 60, EmbedCap: cap,
		}.WithOptimizations()
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := mine.DMine(g, pred, opts)
				b.ReportMetric(float64(res.Kept), "rulesKept")
			}
		})
	}
}

// BenchmarkAblation_IdentifyGuidance is the evidence behind gpard serving
// unguided: one op is one rule evaluated over every candidate of the graph
// with the kernel gpard runs (eip.EvalCenters over two bound matchers), the
// matchers guided by a warm 2-hop sketch index or plain. candidates/op is
// the number of anchored checks (the same either way: guidance reorders the
// search below an anchor, it does not pick the anchors), so ns/op divided by
// it is the cost of one check. DESIGN.md §"One identify kernel" has the
// table.
func BenchmarkAblation_IdentifyGuidance(b *testing.B) {
	for _, c := range identifyCorpus(b, benchScale().PokecUsers) {
		centers := eip.ClassifyCenters(c.g, c.g.NodesWithLabel(c.pred.XLabel), c.pred)
		sketches := sketch.NewIndex(c.g, 2)
		for _, r := range c.rules {
			for _, opts := range []match.Options{{Guided: true, Sketches: sketches}, {}} {
				name := "unguided"
				if opts.Guided {
					name = "guided"
				}
				b.Run(c.name+"/"+r.shape+"/"+name, func(b *testing.B) {
					checks := 0
					counted := func(m *match.Matcher) func(graph.NodeID) bool {
						return func(v graph.NodeID) bool {
							checks++
							return m.HasMatchAt(v)
						}
					}
					eval := func() {
						qm := match.NewMatcher(r.rule.Q, c.g, opts)
						prm := match.NewMatcher(r.rule.PR(), c.g, opts)
						eip.EvalCenters(counted(prm), counted(qm), centers)
						qm.Release()
						prm.Release()
					}
					eval() // fills the lazy sketch index
					checks = 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eval()
					}
					b.ReportMetric(float64(checks)/float64(b.N), "candidates/op")
				})
			}
		}
	}
}
