package bench

import (
	"fmt"
	"slices"
	"time"

	"gpar/internal/core"
	"gpar/internal/eip"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// Counters are one run's deterministic measurements: equal on every
// machine and at every GOMAXPROCS, so tests and FIGURES.csv compare them
// exactly, unlike seconds.
type Counters struct {
	Work      int64 // max per-worker op count (MaxWorkerOp), every algorithm
	IsoChecks int   // DMine and DMineno only: exact isomorphism tests
	Kept      int   // DMine and DMineno only: |Σ| retained
}

// Experiment is one sweep of Section 6: a figure with one series per
// algorithm and one point per swept value. Experiments is the only place
// a sweep is defined; gparbench, the root BenchmarkFig5 and the shape test
// all read it.
type Experiment struct {
	ID     string // e.g. "5a"
	Title  string
	XAxis  string
	Xs     []string // the swept values, as the figure labels them
	Algos  []string // series names, in comparison order
	Mining bool     // DMine vs DMineno: IsoChecks and Kept are measured
	// At builds point i's workload, generating (memoized) any graph it
	// reads, and returns the run of Algos[a] on it.
	At func(i int) func(a int) (Counters, error)
}

// A source is the graph and predicate a sweep reads; a mineSetup or
// matchSetup builds point i of a sweep from one.
type (
	source     func() (*graph.Graph, core.Predicate)
	mineSetup  func(i int) (*graph.Graph, core.Predicate, mine.Options)
	matchSetup func(i int) (*graph.Graph, []*core.Rule, eip.Options)
)

// Experiments is the table of Figures 5(a)-5(f), the varying-d result of
// Exp-1 (5x) and Figures 5(h)-5(o) at scale sc. Building it generates no
// graph; only At does.
func Experiments(sc Scale) []Experiment {
	pokec := func() (*graph.Graph, core.Predicate) {
		g, syms := PokecGraph(sc.PokecUsers, sc.Seed)
		return g, gen.PokecPredicates(syms)[0]
	}
	gplus := func() (*graph.Graph, core.Predicate) {
		g, syms := GplusGraph(sc.GplusUsers, sc.Seed)
		return g, gen.GplusPredicates(syms)[0]
	}
	syn := func(i int) (*graph.Graph, core.Predicate) {
		g, _ := SyntheticGraph(sc.SynSizes[i][0], sc.SynSizes[i][1], sc.Seed)
		return g, SyntheticPredicate(g)
	}
	ns, sizes := intStrings(sc.Ns), make([]string, len(sc.SynSizes))
	for i, s := range sc.SynSizes {
		sizes[i] = fmt.Sprintf("(%d,%d)", s[0], s[1])
	}

	// Exp-1 sweeps n at the middle σ of the σ sweep, σ at n = 4; the
	// synthetic sweeps take σ from the predicate's support (synSigma).
	varyN := func(w source, sigmas []int) mineSetup {
		return func(i int) (*graph.Graph, core.Predicate, mine.Options) {
			g, pred := w()
			return g, pred, dmineOpts(sigmas[len(sigmas)/2], sc.Ns[i], 2)
		}
	}
	varySigma := func(w source, sigmas []int) mineSetup {
		return func(i int) (*graph.Graph, core.Predicate, mine.Options) {
			g, pred := w()
			return g, pred, dmineOpts(sigmas[i], 4, 2)
		}
	}
	// Exp-3 matches |R| = (5,8) scaled to (4,5): 24 rules at varying n,
	// a prefix of max ||Σ|| rules at n = 8, and rules of growing radius d.
	matchN := func(w source) matchSetup {
		return func(i int) (*graph.Graph, []*core.Rule, eip.Options) {
			g, pred := w()
			return g, eipRules(g, pred, 24, sc.Seed), eip.Options{N: sc.Ns[i], Eta: 1.5}
		}
	}
	matchRules := func(w source) matchSetup {
		return func(i int) (*graph.Graph, []*core.Rule, eip.Options) {
			g, pred := w()
			all := eipRules(g, pred, slices.Max(sc.RuleCounts), sc.Seed)
			return g, all[:min(sc.RuleCounts[i], len(all))], eip.Options{N: 8, Eta: 1.5}
		}
	}
	matchD := func(w source) matchSetup {
		return func(i int) (*graph.Graph, []*core.Rule, eip.Options) {
			g, pred := w()
			d := sc.Ds[i]
			rules := gen.Rules(g, pred, gen.RuleGenParams{Count: 10, VP: 2 + d, EP: 3 + d, Seed: sc.Seed + int64(d)})
			return g, rules, eip.Options{N: 8, Eta: 1.5}
		}
	}
	last := len(sc.SynSizes) - 1

	return []Experiment{
		mining("5a", "DMine: varying n (Pokec)", "n", ns, varyN(pokec, sc.SigmaPokec)),
		mining("5b", "DMine: varying n (Google+)", "n", ns, varyN(gplus, sc.SigmaGplus)),
		mining("5c", "DMine: varying σ (Pokec)", "σ", intStrings(sc.SigmaPokec), varySigma(pokec, sc.SigmaPokec)),
		mining("5d", "DMine: varying σ (Google+)", "σ", intStrings(sc.SigmaGplus), varySigma(gplus, sc.SigmaGplus)),
		mining("5e", "DMine: varying n (Synthetic)", "n", ns,
			func(i int) (*graph.Graph, core.Predicate, mine.Options) {
				g, pred := syn(0)
				return g, pred, dmineOpts(synSigma(g, pred), sc.Ns[i], 2)
			}),
		mining("5f", "DMine: varying |G| (Synthetic)", "|G|", sizes,
			func(i int) (*graph.Graph, core.Predicate, mine.Options) {
				g, pred := syn(i)
				return g, pred, dmineOpts(synSigma(g, pred), 16, 2)
			}),
		// The text-only result of Exp-1: both algorithms take longer with
		// larger d, DMine less so.
		mining("5x", "DMine: varying d (Synthetic)", "d", intStrings(sc.Ds),
			func(i int) (*graph.Graph, core.Predicate, mine.Options) {
				g, pred := syn(0)
				return g, pred, dmineOpts(synSigma(g, pred), 8, sc.Ds[i])
			}),
		matching("5h", "Match: varying n (Pokec)", "n", ns, matchN(pokec)),
		matching("5i", "Match: varying n (Google+)", "n", ns, matchN(gplus)),
		matching("5j", "Match: varying ||Σ|| (Pokec)", "||Σ||", intStrings(sc.RuleCounts), matchRules(pokec)),
		matching("5k", "Match: varying ||Σ|| (Google+)", "||Σ||", intStrings(sc.RuleCounts), matchRules(gplus)),
		matching("5l", "Match: varying d (Pokec)", "d", intStrings(sc.Ds), matchD(pokec)),
		matching("5m", "Match: varying d (Google+)", "d", intStrings(sc.Ds), matchD(gplus)),
		matching("5n", "Match: varying n (Synthetic)", "n", ns,
			matchN(func() (*graph.Graph, core.Predicate) { return syn(last) })),
		matching("5o", "Match: varying |G| (Synthetic)", "|G|", sizes,
			func(i int) (*graph.Graph, []*core.Rule, eip.Options) {
				g, pred := syn(i)
				return g, eipRules(g, pred, 24, sc.Seed), eip.Options{N: 4, Eta: 1.5}
			}),
	}
}

// mining is an Exp-1 sweep: DMine against DMineNo on setup's point.
func mining(id, title, xAxis string, xs []string, setup mineSetup) Experiment {
	algos := []func(*graph.Graph, core.Predicate, mine.Options) *mine.Result{mine.DMine, mine.DMineNo}
	return Experiment{ID: id, Title: title, XAxis: xAxis, Xs: xs,
		Algos: []string{"DMine", "DMineno"}, Mining: true,
		At: func(i int) func(int) (Counters, error) {
			g, pred, opts := setup(i)
			return func(a int) (Counters, error) {
				res := algos[a](g, pred, opts)
				return Counters{Work: res.MaxWorkerOp, IsoChecks: res.IsoChecks, Kept: res.Kept}, nil
			}
		}}
}

// matching is an Exp-3 sweep: Match against Matchc and disVF2 on setup's
// point.
func matching(id, title, xAxis string, xs []string, setup matchSetup) Experiment {
	algos := []func(*graph.Graph, []*core.Rule, eip.Options) (*eip.Result, error){eip.Match, eip.Matchc, eip.DisVF2}
	return Experiment{ID: id, Title: title, XAxis: xAxis, Xs: xs,
		Algos: []string{"Match", "Matchc", "disVF2"},
		At: func(i int) func(int) (Counters, error) {
			g, rules, opts := setup(i)
			return func(a int) (Counters, error) {
				res, err := algos[a](g, rules, opts)
				if err != nil {
					return Counters{}, err
				}
				return Counters{Work: res.MaxWorkerOp}, nil
			}
		}}
}

// Measure runs every point of e, timing each run, into its figure.
func Measure(e Experiment) (Figure, error) {
	fig := Figure{ID: e.ID, Title: e.Title, XAxis: e.XAxis, Mining: e.Mining}
	for _, name := range e.Algos {
		fig.Serie = append(fig.Serie, Series{Name: name})
	}
	for i, x := range e.Xs {
		run := e.At(i)
		for a, name := range e.Algos {
			start := time.Now()
			c, err := run(a)
			if err != nil {
				return fig, fmt.Errorf("%s at %s=%s: %w", name, e.XAxis, x, err)
			}
			fig.Serie[a].Points = append(fig.Serie[a].Points,
				Point{X: x, Seconds: time.Since(start).Seconds(), Counters: c})
		}
	}
	return fig, nil
}

// dmineOpts is the common DMine configuration of Exp-1 (k = 10), with a
// per-round candidate cap that plays the role of the paper's "up to 300
// patterns to be verified".
func dmineOpts(sigma, n, d int) mine.Options {
	return mine.Options{
		K:                     10,
		Sigma:                 sigma,
		D:                     d,
		Lambda:                0.5,
		N:                     n,
		MaxEdges:              3,
		MaxCandidatesPerRound: 60,
	}
}

// synSigma picks a σ proportional to the predicate's support so sweeps are
// comparable across graph sizes (the paper uses σ = 100 at 10M nodes).
func synSigma(g *graph.Graph, pred core.Predicate) int {
	return max(len(core.Pq(g, pred))/10, 2)
}

// eipRules builds a rule set Σ for a graph and predicate with the Exp-3
// shape |R| = (5,8) scaled to (4,5).
func eipRules(g *graph.Graph, pred core.Predicate, count int, seed int64) []*core.Rule {
	return gen.Rules(g, pred, gen.RuleGenParams{Count: count, VP: 4, EP: 5, Seed: seed})
}

func intStrings(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}
