package mine

import (
	"sort"

	"gpar/internal/core"
	"gpar/internal/graph"
)

// This file implements the two adaptations of the §4.2 Remark: mining for a
// set of predicates, and mining with no predicate given at all (collect the
// most frequent edge predicates first).

// MultiResult maps each predicate to its mining result.
type MultiResult struct {
	Pred   core.Predicate
	Result *Result
}

// DMineMulti groups the given predicates and iteratively mines GPARs for
// each distinct q(x,y), as the paper's remark prescribes. Duplicate
// predicates are collapsed; results preserve the input order of their first
// occurrence.
//
// Predicates over the same x-label share one mining Context. Results are
// byte-identical to mining each predicate independently with DMine.
//
// A set Options.Ctx cancels the whole job with a *CanceledError: completed
// predicates are discarded along with the in-flight one, so a multi-mine
// either delivers every result or none.
func DMineMulti(g *graph.Graph, preds []core.Predicate, opts Options) ([]MultiResult, error) {
	opts = opts.Defaults()
	seen := make(map[core.Predicate]bool, len(preds))
	ctxs := make(map[graph.Label]*Context)
	var out []MultiResult
	for _, p := range preds {
		if seen[p] {
			continue
		}
		seen[p] = true
		ctx := ctxs[p.XLabel]
		if ctx == nil {
			ctx = NewContext(g, p.XLabel, opts)
			ctxs[p.XLabel] = ctx
		}
		res, err := DMineCtx(ctx, p, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, MultiResult{Pred: p, Result: res})
	}
	return out, nil
}

// FrequentPredicates collects the topN most frequent edge predicates of g —
// single-edge patterns (xLabel, edgeLabel, yLabel) ranked by the number of
// distinct source nodes, the seed-selection strategy of the paper's second
// remark ("when no specific q(x,y) is given ... most frequent edges").
// An optional edge-label filter restricts to one relation (pass NoLabel for
// all).
func FrequentPredicates(g *graph.Graph, topN int, edgeLabel graph.Label) []core.Predicate {
	type key = core.Predicate
	srcs := make(map[key]map[graph.NodeID]bool)
	for v := 0; v < g.NumNodes(); v++ {
		from := graph.NodeID(v)
		for _, e := range g.Out(from) {
			if edgeLabel != graph.NoLabel && e.Label != edgeLabel {
				continue
			}
			k := key{XLabel: g.Label(from), EdgeLabel: e.Label, YLabel: g.Label(e.To)}
			s := srcs[k]
			if s == nil {
				s = make(map[graph.NodeID]bool)
				srcs[k] = s
			}
			s[from] = true
		}
	}
	type ranked struct {
		p core.Predicate
		n int
	}
	rs := make([]ranked, 0, len(srcs))
	for p, s := range srcs {
		rs = append(rs, ranked{p, len(s)})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].n != rs[j].n {
			return rs[i].n > rs[j].n
		}
		a, b := rs[i].p, rs[j].p
		if a.XLabel != b.XLabel {
			return a.XLabel < b.XLabel
		}
		if a.EdgeLabel != b.EdgeLabel {
			return a.EdgeLabel < b.EdgeLabel
		}
		return a.YLabel < b.YLabel
	})
	if topN > 0 && len(rs) > topN {
		rs = rs[:topN]
	}
	out := make([]core.Predicate, len(rs))
	for i, r := range rs {
		out[i] = r.p
	}
	return out
}
