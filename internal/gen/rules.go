package gen

import (
	"math/rand"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// RuleGenParams controls the GPAR generator of Section 6's setup ("we
// generated GPARs R controlled by the numbers |Vp| and |Ep| of nodes and
// edges in PR"): rules are extracted from actual neighborhoods of the data
// graph so they have non-trivial supports, exactly like the paper's
// "meaningful GPARs with labels drawn from their data".
type RuleGenParams struct {
	Count  int
	VP, EP int // target |Vp|, |Ep| of the antecedent
	Seed   int64
}

// Rules samples GPARs for pred from g by growing patterns along data edges
// around randomly chosen Pq members. All returned rules are connected,
// nontrivial, pertain to pred, and have at least one match in g by
// construction. Rules freezes g first, so a graph yields the same rules
// whether or not anything read it before: growRule walks Out and In, whose
// order is insertion order only until the first freeze.
func Rules(g *graph.Graph, pred core.Predicate, p RuleGenParams) []*core.Rule {
	g.Freeze()
	rng := rand.New(rand.NewSource(p.Seed))
	seeds := core.Pq(g, pred)
	var out []*core.Rule
	if len(seeds) == 0 {
		return out
	}
	seen := make(map[string]bool)
	for attempt := 0; attempt < p.Count*20 && len(out) < p.Count; attempt++ {
		vx := seeds[rng.Intn(len(seeds))]
		r := growRule(g, pred, vx, p.VP, p.EP, rng)
		if r == nil || !r.Nontrivial() {
			continue
		}
		sig := r.Q.Signature()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, r)
	}
	return out
}

// growRule builds one antecedent by a randomized BFS over g starting at vx,
// mirroring how real rules describe a candidate's neighborhood. Consequent
// edges (vx -q-> y-label) are excluded from the antecedent; one y-labeled
// node reached through another path may be designated as y.
func growRule(g *graph.Graph, pred core.Predicate, vx graph.NodeID, nv, ne int, rng *rand.Rand) *core.Rule {
	q := pattern.New(g.Symbols())
	px := q.AddNodeL(g.Label(vx))
	q.X = px
	nodeOf := map[graph.NodeID]int{vx: px}
	frontier := []graph.NodeID{vx}
	edges := 0
	// The walk may revisit edges already in the pattern; bound the number
	// of attempts so sparse neighborhoods terminate.
	for iter := 0; len(frontier) > 0 && (q.NumNodes() < nv || edges < ne) && iter < 8*(nv+ne); iter++ {
		v := frontier[rng.Intn(len(frontier))]
		pu := nodeOf[v]
		// Collect candidate incident data edges.
		type cand struct {
			other graph.NodeID
			label graph.Label
			out   bool
		}
		var cands []cand
		for _, e := range g.Out(v) {
			// Never put the consequent itself into the antecedent.
			if pu == px && e.Label == pred.EdgeLabel && g.Label(e.To) == pred.YLabel {
				continue
			}
			cands = append(cands, cand{e.To, e.Label, true})
		}
		for _, e := range g.In(v) {
			cands = append(cands, cand{e.To, e.Label, false})
		}
		if len(cands) == 0 {
			// Remove v from the frontier.
			frontier = removeNode(frontier, v)
			continue
		}
		c := cands[rng.Intn(len(cands))]
		pother, ok := nodeOf[c.other]
		if !ok {
			if q.NumNodes() >= nv {
				frontier = removeNode(frontier, v)
				continue
			}
			pother = q.AddNodeL(g.Label(c.other))
			nodeOf[c.other] = pother
			frontier = append(frontier, c.other)
		}
		var added bool
		if c.out {
			if !q.HasEdge(pu, pother, c.label) {
				q.AddEdgeL(pu, pother, c.label)
				added = true
			}
		} else {
			if !q.HasEdge(pother, pu, c.label) {
				q.AddEdgeL(pother, pu, c.label)
				added = true
			}
		}
		if added {
			edges++
		}
		if edges >= ne && q.NumNodes() >= 2 {
			break
		}
	}
	if q.NumEdges() == 0 {
		return nil
	}
	// Optionally designate a y-labeled node reached via the walk.
	for u := 0; u < q.NumNodes(); u++ {
		if u != q.X && q.Label(u) == pred.YLabel {
			q.Y = u
			break
		}
	}
	r := &core.Rule{Q: q, Pred: pred}
	if r.Q.Y != pattern.NoNode && r.Q.HasEdge(r.Q.X, r.Q.Y, pred.EdgeLabel) {
		return nil
	}
	return r
}

func removeNode(s []graph.NodeID, v graph.NodeID) []graph.NodeID {
	for i, u := range s {
		if u == v {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
