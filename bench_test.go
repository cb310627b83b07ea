package gpar_test

// BenchmarkFig5 times every sweep of Section 6 — Exp-1's Figures 5(a)-5(f)
// and varying-d result (5x), Exp-3's Figures 5(h)-5(o) — from
// internal/bench's experiment table, one sub-benchmark per
// figure/x/algorithm:
//
//	go test -run '^$' -bench 'Fig5/5h' -benchtime 1x .
//
// Workload sizes sit between the harness's QuickScale and DefaultScale so a
// full run stays in the minutes range. DESIGN.md's *Paper fidelity* table
// says what the figures show.

import (
	"testing"

	"gpar/internal/bench"
)

func benchScale() bench.Scale {
	return bench.Scale{
		PokecUsers: 600,
		GplusUsers: 600,
		SynSizes:   [][2]int{{5000, 10000}, {10000, 20000}, {15000, 30000}, {20000, 40000}, {25000, 50000}},
		Ns:         []int{4, 8, 12, 16, 20},
		SigmaPokec: []int{12, 16, 20, 24, 28},
		SigmaGplus: []int{4, 5, 6, 7, 8},
		RuleCounts: []int{8, 16, 24, 32, 40, 48},
		Ds:         []int{1, 2, 3},
		Seed:       1,
	}
}

func BenchmarkFig5(b *testing.B) {
	for _, e := range bench.Experiments(benchScale()) {
		b.Run(e.ID, func(b *testing.B) {
			for i, x := range e.Xs {
				b.Run(x, func(b *testing.B) {
					for a, algo := range e.Algos {
						b.Run(algo, func(b *testing.B) {
							run := e.At(i)
							for b.Loop() {
								c, err := run(a)
								if err != nil {
									b.Fatal(err)
								}
								b.ReportMetric(float64(c.Work), "maxWorkerOps")
							}
						})
					}
				})
			}
		})
	}
}

// BenchmarkTable2_Precision times the full cross-validation study of
// Exp-2; `gparbench -exp precision` prints the table itself.
func BenchmarkTable2_Precision(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		table := bench.Precision(sc, []int{10, 30, 60})
		// conf (row 2) must beat PCAconf (row 0) and Iconf (row 1) at top-10
		// in a healthy run; surface the value as a metric.
		b.ReportMetric(table.Values[2][0], "conf-top10-precision")
	}
}
