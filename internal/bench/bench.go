// Package bench is the experiment harness that regenerates every table and
// figure of Section 6 of "Association Rules with Graph Patterns" (PVLDB
// 2015) at laptop scale: Figures 5(a)-5(f) and the varying-d result for
// DMine vs DMineNo, Figure 5(g)'s case study, the precision table
// (conf vs PCAconf vs Iconf), and Figures 5(h)-5(o) for Match vs Matchc vs
// DisVF2.
//
// Graph sizes are scaled (Scale); each experiment reports wall-clock
// seconds and, because this reproduction runs workers as goroutines
// possibly on few cores, also the maximum per-worker match-work counter —
// the quantity the paper's parallel-scalability claims are about.
// DESIGN.md's *Paper fidelity* table lists the shape claims the counters
// are tested against.
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"sync"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
)

// Point is one measurement.
type Point struct {
	X       string  // swept parameter value
	Seconds float64 // wall-clock time
	Counters
}

// Series is one algorithm's curve.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced plot.
type Figure struct {
	ID     string // e.g. "5a"
	Title  string
	XAxis  string
	Mining bool // the points carry IsoChecks and Kept
	Serie  []Series
}

// Format renders the figure as an aligned text table.
func (f Figure) Format(w io.Writer) {
	fmt.Fprintf(w, "Figure %s — %s (x: %s)\n", f.ID, f.Title, f.XAxis)
	fmt.Fprintf(w, "%-12s", f.XAxis)
	for _, s := range f.Serie {
		fmt.Fprintf(w, "%18s", s.Name+" (s)")
		fmt.Fprintf(w, "%18s", s.Name+" (work)")
	}
	fmt.Fprintln(w)
	if len(f.Serie) == 0 {
		return
	}
	for i := range f.Serie[0].Points {
		fmt.Fprintf(w, "%-12s", f.Serie[0].Points[i].X)
		for _, s := range f.Serie {
			if i < len(s.Points) {
				fmt.Fprintf(w, "%18.3f%18d", s.Points[i].Seconds, s.Points[i].Work)
			}
		}
		fmt.Fprintln(w)
	}
}

// Scale fixes the scaled-down workload sizes: the paper's sizes divided by
// roughly 1000.
type Scale struct {
	PokecUsers int
	GplusUsers int
	SynSizes   [][2]int // (|V|, |E|) sweep for Figs 5(f) and 5(o)
	Ns         []int    // worker sweep (the paper's 4..20)
	SigmaPokec []int    // σ sweep for Fig 5(c) (scaled from 3k..7k)
	SigmaGplus []int
	RuleCounts []int // ||Σ|| sweep for Figs 5(j)(k)
	Ds         []int // d sweep for Figs 5(l)(m)
	Seed       int64
}

// DefaultScale returns the default laptop-scale parameters.
func DefaultScale() Scale {
	return Scale{
		PokecUsers: 1500,
		GplusUsers: 1500,
		SynSizes:   [][2]int{{10000, 20000}, {20000, 40000}, {30000, 60000}, {40000, 80000}, {50000, 100000}},
		Ns:         []int{4, 8, 12, 16, 20},
		SigmaPokec: []int{30, 40, 50, 60, 70},
		SigmaGplus: []int{7, 8, 9, 10, 11},
		RuleCounts: []int{8, 16, 24, 32, 40, 48},
		Ds:         []int{1, 2, 3},
		Seed:       1,
	}
}

// QuickScale returns a tiny configuration for smoke tests.
func QuickScale() Scale {
	return Scale{
		PokecUsers: 250,
		GplusUsers: 250,
		SynSizes:   [][2]int{{1000, 2000}, {2000, 4000}},
		Ns:         []int{2, 4},
		SigmaPokec: []int{5, 10},
		SigmaGplus: []int{3, 5},
		RuleCounts: []int{4, 8},
		Ds:         []int{1, 2},
		Seed:       1,
	}
}

// graphCache memoizes generated graphs so sweeps share workloads.
var graphCache sync.Map // string -> cached

type cached struct {
	g    *graph.Graph
	syms *graph.Symbols
}

// PokecGraph returns the memoized Pokec-like graph for the scale.
func PokecGraph(users int, seed int64) (*graph.Graph, *graph.Symbols) {
	key := fmt.Sprintf("pokec-%d-%d", users, seed)
	if c, ok := graphCache.Load(key); ok {
		cc := c.(cached)
		return cc.g, cc.syms
	}
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(users, seed))
	graphCache.Store(key, cached{g, syms})
	return g, syms
}

// GplusGraph returns the memoized Google+-like graph for the scale.
func GplusGraph(users int, seed int64) (*graph.Graph, *graph.Symbols) {
	key := fmt.Sprintf("gplus-%d-%d", users, seed)
	if c, ok := graphCache.Load(key); ok {
		cc := c.(cached)
		return cc.g, cc.syms
	}
	syms := graph.NewSymbols()
	g := gen.Gplus(syms, gen.DefaultGplus(users, seed))
	graphCache.Store(key, cached{g, syms})
	return g, syms
}

// SyntheticGraph returns the memoized synthetic graph of the given size.
func SyntheticGraph(nv, ne int, seed int64) (*graph.Graph, *graph.Symbols) {
	key := fmt.Sprintf("syn-%d-%d-%d", nv, ne, seed)
	if c, ok := graphCache.Load(key); ok {
		cc := c.(cached)
		return cc.g, cc.syms
	}
	syms := graph.NewSymbols()
	g := gen.Synthetic(syms, nv, ne, seed)
	graphCache.Store(key, cached{g, syms})
	return g, syms
}

// SyntheticPredicate picks a predicate with support on a synthetic graph:
// the most frequent (xLabel, edgeLabel, yLabel) triple.
func SyntheticPredicate(g *graph.Graph) core.Predicate {
	counts := map[core.Predicate]int{}
	for v := 0; v < g.NumNodes(); v++ {
		from := graph.NodeID(v)
		for _, e := range g.Out(from) {
			p := core.Predicate{XLabel: g.Label(from), EdgeLabel: e.Label, YLabel: g.Label(e.To)}
			counts[p]++
		}
	}
	var best core.Predicate
	bestN := -1
	for p, n := range counts {
		if n > bestN || (n == bestN && less(p, best)) {
			best, bestN = p, n
		}
	}
	return best
}

func less(a, b core.Predicate) bool {
	if a.XLabel != b.XLabel {
		return a.XLabel < b.XLabel
	}
	if a.EdgeLabel != b.EdgeLabel {
		return a.EdgeLabel < b.EdgeLabel
	}
	return a.YLabel < b.YLabel
}

// csvHeader names the columns of WriteCSV's output. A matching figure's
// row leaves iso_checks and kept empty and every figure row leaves
// precision empty; a precision row (figure "precision", x the top N,
// series the metric) carries its value in precision alone. Seconds, the
// one column that differs between runs, comes last so a check can cut it.
var csvHeader = []string{"figure", "x", "series", "work", "iso_checks", "kept", "precision", "seconds"}

// WriteCSV writes the figures' points and then the precision table's
// values as one CSV document with one header, for external plotting.
func WriteCSV(w io.Writer, figs []Figure, prec PrecisionTable) error {
	rows := [][]string{csvHeader}
	for _, f := range figs {
		for _, s := range f.Serie {
			for _, p := range s.Points {
				iso, kept := "", ""
				if f.Mining {
					iso, kept = strconv.Itoa(p.IsoChecks), strconv.Itoa(p.Kept)
				}
				rows = append(rows, []string{f.ID, p.X, s.Name, strconv.FormatInt(p.Work, 10), iso, kept, "",
					strconv.FormatFloat(p.Seconds, 'f', 6, 64)})
			}
		}
	}
	for mi, m := range prec.Metrics {
		for ti, top := range prec.Tops {
			rows = append(rows, []string{"precision", strconv.Itoa(top), m, "", "", "",
				strconv.FormatFloat(prec.Values[mi][ti], 'f', 6, 64), ""})
		}
	}
	return csv.NewWriter(w).WriteAll(rows)
}
