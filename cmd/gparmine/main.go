// Command gparmine runs DMP — diversified top-k GPAR discovery (algorithm
// DMine of the paper) — on a graph file and prints the discovered rules.
//
// Usage:
//
//	gparmine -graph graph.txt -pred "user,like_music,music:Disco" \
//	         -k 10 -sigma 50 -d 2 -lambda 0.5 -n 8 [-rules out.txt] [-no-opt]
//
// Multiple comma-triple predicates may be given separated by ';' (the
// paper's multi-predicate remark): rules are mined per predicate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

func main() {
	var (
		graphIn  = flag.String("graph", "", "input graph file")
		predStr  = flag.String("pred", "", "predicates xLabel,edgeLabel,yLabel[;more]")
		k        = flag.Int("k", 10, "top-k size")
		sigma    = flag.Int("sigma", 10, "support threshold σ")
		d        = flag.Int("d", 2, "radius bound")
		lambda   = flag.Float64("lambda", 0.5, "diversification balance λ")
		n        = flag.Int("n", 4, "workers")
		maxEdges = flag.Int("max-edges", 3, "antecedent edge budget")
		capPerRd = flag.Int("cap", 100, "max candidates per round (0 = unlimited)")
		noOpt    = flag.Bool("no-opt", false, "run the unoptimized DMineno baseline")
		rulesOut = flag.String("rules", "", "write discovered rules to this file")
	)
	flag.Parse()
	if *graphIn == "" || *predStr == "" {
		fmt.Fprintln(os.Stderr, "gparmine: -graph and -pred are required")
		os.Exit(2)
	}
	syms := graph.NewSymbols()
	f, err := os.Open(*graphIn)
	if err != nil {
		fatal(err)
	}
	g, err := graph.Read(f, syms)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	opts := mine.Options{
		K: *k, Sigma: *sigma, D: *d, Lambda: *lambda, N: *n,
		MaxEdges: *maxEdges, MaxCandidatesPerRound: *capPerRd,
	}

	var allRules []*core.Rule
	for _, ps := range strings.Split(*predStr, ";") {
		pred, err := core.ParsePredicate(syms, ps)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		var res *mine.Result
		if *noOpt {
			res = mine.DMineNo(g, pred, opts)
		} else {
			res = mine.DMine(g, pred, opts)
		}
		elapsed := time.Since(start)
		fmt.Printf("\npredicate %s: %d rounds, %d candidates generated, %d kept, F=%.4f, %s\n",
			pred.String(syms), res.Rounds, res.Generated, res.Kept, res.F, elapsed.Round(time.Millisecond))
		for i, mm := range res.TopK {
			fmt.Printf("%2d. conf %.3f  supp %4d  %s\n", i+1, mm.Conf, mm.Stats.SuppR, mm.Rule)
			allRules = append(allRules, mm.Rule)
		}
	}

	if *rulesOut != "" && len(allRules) > 0 {
		f, err := os.Create(*rulesOut)
		if err != nil {
			fatal(err)
		}
		if err := core.WriteRules(f, allRules); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("\nwrote %d rules to %s\n", len(allRules), *rulesOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gparmine:", err)
	os.Exit(1)
}
