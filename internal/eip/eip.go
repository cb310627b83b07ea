// Package eip solves the entity identification problem (EIP) of Section 5
// of "Association Rules with Graph Patterns" (PVLDB 2015): given a set Σ of
// GPARs pertaining to the same predicate q(x,y), a graph G and a confidence
// bound η, compute Σ(x,G,η) — the potential customers vx ∈ Q(x,G) for some
// R: Q ⇒ q in Σ with conf(R,G) ≥ η.
//
// Three algorithms are provided, mirroring Section 6's comparison:
//
//   - Matchc: the parallel scalable baseline of Theorem 6 — partition by
//     d-neighborhood data locality, per-candidate local matching, parallel
//     assembly — but with full per-candidate match enumeration and no
//     guidance.
//   - Match: Matchc plus the Section 5.2 optimizations — early termination
//     (stop at the first embedding), guided search over k-hop sketches, the
//     PR ⇒ Q containment reuse of Example 10, and a shared neighborhood
//     triple summary standing in for multi-query common-subpattern sharing.
//   - DisVF2: a parallel full-enumeration VF2 over the whole graph with two
//     isomorphism sweeps per rule (PR and Q), the naive baseline.
package eip

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/partition"
	"gpar/internal/sketch"
)

// Options configures an EIP run.
type Options struct {
	N   int     // number of workers
	Eta float64 // confidence bound η

	// SketchK is the sketch depth for guided search (Match only); 0 = 2.
	SketchK int
}

// Defaults fills unset tunables.
func (o Options) Defaults() Options {
	if o.N <= 0 {
		o.N = 4
	}
	if o.SketchK <= 0 {
		o.SketchK = 2
	}
	return o
}

// RuleOutcome is one rule's graph-wide evaluation.
type RuleOutcome struct {
	Rule    *core.Rule
	Stats   core.Stats
	Conf    float64
	QSet    []graph.NodeID // Q(x,G): the rule's potential customers
	Applied bool           // conf ≥ η
}

// Result is the outcome of an EIP run.
type Result struct {
	// Identified is Σ(x,G,η), sorted.
	Identified []graph.NodeID
	PerRule    []RuleOutcome

	WorkerOps   []int64
	MaxWorkerOp int64
}

// validate checks that all rules pertain to the same predicate, as the EIP
// problem statement requires.
func validate(rules []*core.Rule) error {
	if len(rules) == 0 {
		return fmt.Errorf("eip: empty rule set")
	}
	pred := rules[0].Pred
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("eip: rule %d: %w", i, err)
		}
		if r.Pred != pred {
			return fmt.Errorf("eip: rule %d pertains to a different predicate", i)
		}
	}
	return nil
}

// MaxRadius returns the partitioning radius for a rule set: the largest
// r(Q,x) or r(PR,x) over Σ (minimum 1), so every per-candidate check is
// local to its fragment. The serving layer (internal/serve) uses it as the
// farthest a rule can see from a candidate.
func MaxRadius(rules []*core.Rule) int {
	d := 1
	for _, r := range rules {
		if rq := r.Q.RadiusAt(r.Q.X); rq > d {
			d = rq
		}
		if rp := r.Radius(); rp > d {
			d = rp
		}
	}
	return d
}

// Class is a candidate center's LCWA class of Section 3 with respect to a
// predicate: Pq (an outgoing pred edge to a YLabel-labeled node exists),
// Pqbar (pred edges exist, none to YLabel — the q̄ set), or Other (no pred
// edge at all, the unknown cases).
type Class uint8

const (
	Other Class = iota
	Pq
	Pqbar
)

// Centers is a list of candidate centers with their LCWA classes, filed
// in two node-indexed bitsets: Pq and Pqbar hold a center's bit when it is
// of that class, and a center in neither is Other. The bitsets hold the
// bits of Nodes' members and of no other node, except in a view of a
// sub-range of Nodes, which shares its whole list's bitsets.
type Centers struct {
	Nodes     []graph.NodeID
	Pq, Pqbar []uint64
}

// Class returns v's class: Pq is 1 and Pqbar 2, one bit per bitset.
func (c Centers) Class(v graph.NodeID) Class {
	w, i := v>>6, v&63
	return Class(c.Pq[w]>>i&1 | c.Pqbar[w]>>i&1<<1)
}

// Set files v under class k, which may be Other.
func (c Centers) Set(v graph.NodeID, k Class) {
	w, i := v>>6, v&63
	c.Pq[w] = c.Pq[w]&^(1<<i) | uint64(k&1)<<i
	c.Pqbar[w] = c.Pqbar[w]&^(1<<i) | uint64(k>>1)<<i
}

// Classify returns v's LCWA class with respect to pred, from v's
// pred-labelled edge range alone. It is the one LCWA read outside core's
// oracle: ClassifyCenters and gpard's delta patch of its snapshot's classes
// (internal/serve) both call it.
func Classify(g *graph.Graph, v graph.NodeID, pred core.Predicate) Class {
	qEdges := g.OutRangeL(v, pred.EdgeLabel)
	switch {
	case slices.ContainsFunc(qEdges, func(e graph.Edge) bool { return g.Label(e.To) == pred.YLabel }):
		return Pq
	case len(qEdges) > 0:
		return Pqbar
	}
	return Other
}

// ClassifyCenters classifies centers with respect to pred, in bitsets of
// (g.NumNodes()+63)/64 words. Nodes aliases centers. The batch algorithms
// here and mining's round 0 (internal/mine) call it.
func ClassifyCenters(g *graph.Graph, centers []graph.NodeID, pred core.Predicate) Centers {
	n := (g.NumNodes() + 63) / 64
	c := Centers{Nodes: centers, Pq: make([]uint64, n), Pqbar: make([]uint64, n)}
	for _, v := range centers {
		c.Set(v, Classify(g, v, pred))
	}
	return c
}

// Count returns the number of Pq and of q̄ centers: their shares of
// supp(q,G) and supp(q̄,G). A view counts its whole list's.
func (c Centers) Count() (pq, pqbar int) {
	for i := range c.Pq {
		pq += bits.OnesCount64(c.Pq[i])
		pqbar += bits.OnesCount64(c.Pqbar[i])
	}
	return pq, pqbar
}

// Partial is one rule's evaluation over one set of classified centers.
type Partial struct {
	Q   []graph.NodeID // centers where Q matches, in center order
	R   int            // Pq centers where PR matches: the supp(R) share
	Qqb int            // q̄ centers where Q matches: the supp(Qq̄) share
}

// EvalCenters is the per-candidate loop of algorithms Matchc and Match for
// one rule: matchPR and matchQ report whether PR and Q match anchored at a
// center (matchers on the centers' graph, in gpard restricted to its
// semi-join filter's per-node sets; the caller decides how they search).
// Pq members try PR first, and a PR match is a Q match (Example 10's
// containment reuse), so the Q check is skipped. A nil matchPR means the
// converse holds too (core.Rule.PRAtPq's same): a Pq member's Q match is
// its PR match, tried once. q̄ members' Q matches count for supp(Qq̄);
// every Q match is a potential customer. It is the one copy of this loop:
// the batch algorithms here and gpard's Snapshot.confirm (internal/serve)
// both call it.
func EvalCenters(matchPR, matchQ func(graph.NodeID) bool, c Centers) Partial {
	var p Partial
	for _, v := range c.Nodes {
		switch { // a class is read only where it decides, not per rejected center
		case matchPR != nil && c.Class(v) == Pq && matchPR(v):
			p.R++
		case !matchQ(v):
			continue
		case matchPR == nil && c.Class(v) == Pq:
			p.R++
		case c.Class(v) == Pqbar:
			p.Qqb++
		}
		p.Q = append(p.Q, v)
	}
	return p
}

// mode selects the per-candidate strategy.
type mode int

const (
	modeMatchc mode = iota
	modeMatch
)

// Matchc computes Σ(x,G,η) with the parallel scalable baseline algorithm of
// Section 5.1.
func Matchc(g *graph.Graph, rules []*core.Rule, opts Options) (*Result, error) {
	return run(g, rules, opts.Defaults(), modeMatchc)
}

// Match computes Σ(x,G,η) with all Section 5.2 optimizations.
func Match(g *graph.Graph, rules []*core.Rule, opts Options) (*Result, error) {
	return run(g, rules, opts.Defaults(), modeMatch)
}

// fragState is one worker's slice of the computation.
type fragState struct {
	centers Centers   // owned centers (local IDs), classified
	parts   []Partial // per rule; Q holds global IDs
	ops     int64
}

func run(g *graph.Graph, rules []*core.Rule, opts Options, md mode) (*Result, error) {
	if err := validate(rules); err != nil {
		return nil, err
	}
	pred := rules[0].Pred
	d := MaxRadius(rules)
	cands := g.NodesWithLabel(pred.XLabel)
	frags := partition.Partition(g, cands, opts.N, d)
	for _, f := range frags {
		f.G.Freeze() // one worker per fragment, frozen before they start
	}

	// Per-rule triple requirements depend only on the rule; compute once,
	// shared by all fragment workers (read-only).
	var needQ, needPR [][]Triple
	if md == modeMatch {
		needQ = make([][]Triple, len(rules))
		needPR = make([][]Triple, len(rules))
		for i, r := range rules {
			needQ[i] = PatternTriples(r.Q)
			needPR[i] = RuleTriples(r)
		}
	}

	states := make([]*fragState, len(frags))
	var wg sync.WaitGroup
	for i, f := range frags {
		wg.Add(1)
		go func(i int, f *partition.Fragment) {
			defer wg.Done()
			states[i] = processFragment(f, rules, needQ, needPR, pred, opts, md)
		}(i, f)
	}
	wg.Wait()
	return assemble(rules, states, opts), nil
}

// processFragment runs the per-candidate checks for all rules on one
// fragment (step 2 of Matchc).
func processFragment(f *partition.Fragment, rules []*core.Rule, needQ, needPR [][]Triple, pred core.Predicate, opts Options, md mode) *fragState {
	st := &fragState{parts: make([]Partial, len(rules))}
	// LCWA classification of owned centers (once, shared by all rules).
	st.centers = ClassifyCenters(f.G, f.Centers, pred)

	mopts := match.Options{}
	var triples *TripleIndex
	if md == modeMatch {
		mopts.Guided = true
		mopts.Sketches = sketch.NewIndex(f.G, opts.SketchK)
		triples = NewTripleIndex(f.G)
	}

	for ri, r := range rules {
		if md == modeMatch && !triples.Covers(needQ[ri]) {
			// The fragment lacks a triple Q itself requires: no center can
			// match Q — and PR ⊇ Q, so none can match PR either. Skip the
			// rule without building matchers, charging the same per-
			// candidate check ops EvalCenters would have (Pq members run
			// both the PR and the Q check).
			npq, _ := st.centers.Count()
			st.ops += int64(npq + len(st.centers.Nodes))
			continue
		}
		// One pooled matcher per pattern, reused across every candidate of
		// the fragment: the per-candidate hot loop allocates nothing. The PR
		// gate additionally requires the consequent triple; when it fails
		// prm stays nil and PR checks short-circuit, but Q checks still run.
		qm := match.NewMatcher(r.Q, f.G, mopts)
		var prm *match.Matcher
		if md != modeMatch || triples.Covers(needPR[ri]) {
			prm = match.NewMatcher(r.PR(), f.G, mopts)
		}
		// Every check is one op. Match stops at the first embedding; Matchc
		// enumerates them all, and every visited embedding is an op too.
		check := func(m *match.Matcher, c graph.NodeID) bool {
			st.ops++
			if m == nil {
				return false
			}
			if md == modeMatch {
				return m.HasMatchAt(c)
			}
			n := m.EnumerateAnchored(c, nil)
			st.ops += int64(n)
			return n > 0
		}
		part := EvalCenters(
			func(c graph.NodeID) bool { return check(prm, c) },
			func(c graph.NodeID) bool { return check(qm, c) },
			st.centers,
		)
		for i, c := range part.Q {
			part.Q[i] = f.Global(c)
		}
		st.parts[ri] = part
		qm.Release()
		if prm != nil {
			prm.Release()
		}
	}
	return st
}

// assemble is step 3 of Matchc: sum the per-fragment partial supports and
// hand them to finish.
func assemble(rules []*core.Rule, states []*fragState, opts Options) *Result {
	suppQ1, suppQbar := 0, 0
	workerOps := make([]int64, len(states))
	parts := make([]Partial, len(rules))
	for w, st := range states {
		npq, npqbar := st.centers.Count()
		suppQ1 += npq
		suppQbar += npqbar
		workerOps[w] = st.ops
		for ri, p := range st.parts {
			parts[ri].Q = append(parts[ri].Q, p.Q...)
			parts[ri].R += p.R
			parts[ri].Qqb += p.Qqb
		}
	}
	return finish(rules, parts, suppQ1, suppQbar, workerOps, opts.Eta)
}

// finish is the shared tail of Matchc, Match and DisVF2: from each rule's
// graph-wide Q(x,G) (any order), supp(R) and supp(Qq̄), and the predicate's
// two class supports, compute conf(R,G) per rule and emit Σ(x,G,η).
func finish(rules []*core.Rule, parts []Partial, suppQ1, suppQbar int, workerOps []int64, eta float64) *Result {
	res := &Result{WorkerOps: workerOps}
	for _, ops := range workerOps {
		res.MaxWorkerOp = max(res.MaxWorkerOp, ops)
	}
	for ri, r := range rules {
		p := parts[ri]
		slices.Sort(p.Q)
		out := RuleOutcome{Rule: r, QSet: p.Q, Stats: core.Stats{
			SuppR: p.R, SuppQ: len(p.Q), SuppQ1: suppQ1, SuppQbar: suppQbar, SuppQqb: p.Qqb,
		}}
		out.Conf = out.Stats.Conf()
		out.Applied = out.Conf >= eta
		if out.Applied {
			res.Identified = append(res.Identified, out.QSet...)
		}
		res.PerRule = append(res.PerRule, out)
	}
	slices.Sort(res.Identified)
	res.Identified = slices.Compact(res.Identified)
	return res
}
