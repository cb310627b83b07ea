package eip

import (
	"sync"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/match"
)

// DisVF2 computes Σ(x,G,η) the naive way the paper benchmarks against: for
// each GPAR, run two full-enumeration isomorphism sweeps over the whole
// graph (one for PR, one for Q), with no per-candidate locality, no early
// termination and no guidance. Rules are distributed over n workers.
func DisVF2(g *graph.Graph, rules []*core.Rule, opts Options) (*Result, error) {
	if err := validate(rules); err != nil {
		return nil, err
	}
	opts = opts.Defaults()
	pred := rules[0].Pred
	// Workers share g; freeze it before they start so the matcher's lazy
	// Freeze never races.
	g.Freeze()

	// Global LCWA classification (computed once; it is per-predicate).
	suppQ1 := len(core.Pq(g, pred))
	qbarSet := make(map[graph.NodeID]bool)
	for _, v := range core.Pqbar(g, pred) {
		qbarSet[v] = true
	}

	type ruleRes struct {
		qSet map[graph.NodeID]bool
		rSet map[graph.NodeID]bool
		ops  int64
	}
	results := make([]ruleRes, len(rules))
	// Distribute rules round-robin over workers.
	var wg sync.WaitGroup
	workerOps := make([]int64, opts.N)
	for w := 0; w < opts.N; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ri := w; ri < len(rules); ri += opts.N {
				r := rules[ri]
				rr := ruleRes{
					qSet: make(map[graph.NodeID]bool),
					rSet: make(map[graph.NodeID]bool),
				}
				// Full enumeration of Q's matches: x images.
				qx := r.Q.Expand().X
				rr.ops += int64(match.Enumerate(r.Q, g, match.Options{}, func(asgn []graph.NodeID) bool {
					rr.qSet[asgn[qx]] = true
					return true
				}))
				pr := r.PR()
				px := pr.Expand().X
				rr.ops += int64(match.Enumerate(pr, g, match.Options{}, func(asgn []graph.NodeID) bool {
					rr.rSet[asgn[px]] = true
					return true
				}))
				results[ri] = rr
				workerOps[w] += rr.ops
			}
		}(w)
	}
	wg.Wait()

	parts := make([]Partial, len(rules))
	for ri, rr := range results {
		parts[ri].R = len(rr.rSet)
		for v := range rr.qSet {
			parts[ri].Q = append(parts[ri].Q, v)
			if qbarSet[v] {
				parts[ri].Qqb++
			}
		}
	}
	return finish(rules, parts, suppQ1, len(qbarSet), workerOps, opts.Eta), nil
}
