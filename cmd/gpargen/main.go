// Command gpargen emits data graphs and GPAR rule sets to files, in the
// text formats the other tools consume.
//
// Usage:
//
//	gpargen -kind pokec  -users 2000 -seed 1 -out graph.txt
//	gpargen -kind gplus  -users 2000 -seed 1 -out graph.txt
//	gpargen -kind synthetic -v 10000 -e 20000 -seed 1 -out graph.txt
//	gpargen -kind g1 -out g1.txt                (the paper's Fig. 2 G1)
//	gpargen -kind g2 -out g2.txt                (the paper's Fig. 2 G2)
//	gpargen -kind rules -graph graph.txt -pred "user,like_music,music:Disco" \
//	        -count 24 -vp 4 -ep 5 -out rules.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
)

func main() {
	var (
		kind    = flag.String("kind", "pokec", "pokec | gplus | synthetic | g1 | g2 | rules")
		users   = flag.Int("users", 1000, "user count for pokec/gplus")
		nv      = flag.Int("v", 10000, "nodes for synthetic")
		ne      = flag.Int("e", 20000, "edges for synthetic")
		seed    = flag.Int64("seed", 1, "random seed")
		out     = flag.String("out", "", "output file (default stdout)")
		graphIn = flag.String("graph", "", "input graph for -kind rules")
		predStr = flag.String("pred", "", "predicate xLabel,edgeLabel,yLabel for -kind rules")
		count   = flag.Int("count", 24, "rule count for -kind rules")
		vp      = flag.Int("vp", 4, "antecedent nodes for -kind rules")
		ep      = flag.Int("ep", 5, "antecedent edges for -kind rules")
	)
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	syms := graph.NewSymbols()
	switch *kind {
	case "pokec":
		g := gen.Pokec(syms, gen.DefaultPokec(*users, *seed))
		writeGraph(w, g)
	case "gplus":
		g := gen.Gplus(syms, gen.DefaultGplus(*users, *seed))
		writeGraph(w, g)
	case "synthetic":
		g := gen.Synthetic(syms, *nv, *ne, *seed)
		writeGraph(w, g)
	case "g1":
		writeGraph(w, gen.G1(syms).G)
	case "g2":
		writeGraph(w, gen.G2(syms).G)
	case "rules":
		if *graphIn == "" || *predStr == "" {
			fatal(fmt.Errorf("-kind rules requires -graph and -pred"))
		}
		f, err := os.Open(*graphIn)
		if err != nil {
			fatal(err)
		}
		g, err := graph.Read(f, syms)
		f.Close()
		if err != nil {
			fatal(err)
		}
		pred, err := core.ParsePredicate(syms, *predStr)
		if err != nil {
			fatal(err)
		}
		rules := gen.Rules(g, pred, gen.RuleGenParams{Count: *count, VP: *vp, EP: *ep, Seed: *seed})
		if len(rules) == 0 {
			fatal(fmt.Errorf("no rules could be generated; does the predicate have support?"))
		}
		if err := core.WriteRules(w, rules); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown -kind %q", *kind))
	}
}

func writeGraph(w *os.File, g *graph.Graph) {
	if _, err := g.WriteTo(w); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpargen:", err)
	os.Exit(1)
}
