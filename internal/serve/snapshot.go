package serve

import (
	"fmt"
	"slices"
	"sync"

	"gpar/internal/core"
	"gpar/internal/eip"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/pattern"
)

// ServedRule is one rule of the resident set Σ with everything the request
// paths need precomputed (no symbol-table reads after build).
type ServedRule struct {
	Index   int
	Key     string // core.Rule.Key(), the cache identity
	Rule    *core.Rule
	Display string // Rule.String(), rendered at build time
	Radius  int    // r(PR, x), as /v1/rules shows it
	Size    int    // |Q|

	// pr is Rule.PR() materialized once at build time (Rule.PR() clones per
	// call).
	pr *pattern.Pattern
}

// Snapshot is one immutable unit of serving state. All fields are read-only
// after the constructor returns; swapping installs a whole new Snapshot.
type Snapshot struct {
	Gen  uint64
	G    *graph.Graph
	Pred core.Predicate
	// PredDisplay is Pred rendered at build time.
	PredDisplay string
	Rules       []*ServedRule
	byKey       map[string]*ServedRule

	// centres are the XLabel candidates, classified under the LCWA (patched
	// per delta batch); Nodes aliases the graph's label index. EvalRule fans out over workers
	// contiguous index ranges of it, and every range reads the one shared
	// graph.
	centres eip.Centers
	workers int
	// SuppQ1 and SuppQbar are supp(q,G) and supp(q̄,G): the LCWA
	// classification of candidates, shared by every rule of the predicate.
	SuppQ1   int
	SuppQbar int
}

// RuleEval is one rule's graph-wide evaluation: the match-set cache value.
// It is immutable once the memo holds it.
type RuleEval struct {
	Key                string
	Stats              core.Stats
	Conf               float64
	Matches            []graph.NodeID // Q(x,G), sorted global IDs, never nil: the potential customers
	Centres, Survivors int            // candidates, and those the filter kept

	// encoded returns Matches as a JSON array, encoded on its first call:
	// the identify answer splices it, so a resident set is printed once.
	encoded func() []byte
}

// BuildSnapshot prepares serving state for g, pred and rules. Rules must
// all validate and pertain to pred (the EIP problem statement requires one
// predicate per Σ). The graph is frozen and its label index forced so all
// later access is read-only.
func BuildSnapshot(g *graph.Graph, pred core.Predicate, rules []*core.Rule, cfg Config) (*Snapshot, error) {
	if pred.XLabel == graph.NoLabel || pred.EdgeLabel == graph.NoLabel || pred.YLabel == graph.NoLabel {
		return nil, fmt.Errorf("serve: predicate has unset labels")
	}
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("serve: rule %d: %w", i, err)
		}
		if r.Pred != pred {
			return nil, fmt.Errorf("serve: rule %d pertains to a different predicate", i)
		}
		// A delta batch finds the centres it can affect by distances in PR:
		// PR must be connected (Section 2.2) with y distinct from x.
		if rad := r.Radius(); rad < 1 {
			return nil, fmt.Errorf("serve: rule %d: r(PR, x) = %d, want >= 1 with every node reachable from x", i, rad)
		}
	}
	// Freeze compiles the CSR representation, including the node-label
	// candidate index, so every later read is lock-free and mutation-free.
	g.Freeze()

	snap := &Snapshot{
		Pred:        pred,
		PredDisplay: pred.String(g.Symbols()),
		byKey:       make(map[string]*ServedRule, len(rules)),
	}
	for i, r := range rules {
		sr := &ServedRule{
			Index:   i,
			Key:     r.Key(),
			Rule:    r,
			Display: r.String(),
			Radius:  r.Radius(),
			Size:    r.Size(),
			pr:      r.PR(),
		}
		snap.Rules = append(snap.Rules, sr)
		snap.byKey[sr.Key] = sr
	}
	return snap.patch(g, g.NodesWithLabel(pred.XLabel), cfg), nil
}

// DeriveDeltaSnapshot prepares serving state for g, a graph derived from
// prev.G (a delta overlay, or its compaction) under prev's predicate and
// rule set, which are inherited as they are. It classifies every candidate
// afresh, because g may be any number of batches past prev.G.
func DeriveDeltaSnapshot(prev *Snapshot, g *graph.Graph, cfg Config) *Snapshot {
	return prev.patch(g, g.NodesWithLabel(prev.Pred.XLabel), cfg)
}

// patch is the one snapshot constructor: the snapshot of g — frozen, with
// or without a delta overlay — under s's predicate and prepared rule set
// (a previous snapshot, or BuildSnapshot's half-filled one), in which only
// the centres in lcwa are classified again. lcwa must hold every node
// whose LCWA class can differ from s's: each candidate for a build, the
// nodes a batch can reclassify (every relabelled or added node among
// them), none for a compaction. When the x-label list is the same slice
// the classes are s's, patched; otherwise a merge walk of the two
// ascending lists carries s's classes, and the new members, all in lcwa,
// start as Other. The supports move by the difference.
func (s *Snapshot) patch(g *graph.Graph, lcwa []graph.NodeID, cfg Config) *Snapshot {
	pred, old := s.Pred, s.centres
	cs := eip.Centers{Nodes: g.NodesWithLabel(pred.XLabel)}
	supp := [3]int{eip.Pq: s.SuppQ1, eip.Pqbar: s.SuppQbar} // supp[eip.Other] is unused
	if len(cs.Nodes) == len(old.Nodes) && (len(cs.Nodes) == 0 || &cs.Nodes[0] == &old.Nodes[0]) {
		cs.Class = slices.Clone(old.Class)
	} else {
		cs.Class = make([]eip.Class, len(cs.Nodes))
		j := 0
		for i, v := range old.Nodes {
			for j < len(cs.Nodes) && cs.Nodes[j] < v {
				j++
			}
			if j < len(cs.Nodes) && cs.Nodes[j] == v {
				cs.Class[j] = old.Class[i]
			} else {
				supp[old.Class[i]]--
			}
		}
	}
	for _, v := range lcwa {
		if j, ok := slices.BinarySearch(cs.Nodes, v); ok {
			supp[cs.Class[j]]--
			cs.Class[j] = eip.Classify(g, v, pred)
			supp[cs.Class[j]]++
		}
	}
	return &Snapshot{
		G:           g,
		Pred:        pred,
		PredDisplay: s.PredDisplay,
		Rules:       s.Rules,
		byKey:       s.byKey,
		centres:     cs,
		workers:     cfg.defaults().Workers,
		SuppQ1:      supp[eip.Pq],
		SuppQbar:    supp[eip.Pqbar],
	}
}

// RuleByKey resolves a rule key to its served rule.
func (s *Snapshot) RuleByKey(key string) (*ServedRule, bool) {
	sr, ok := s.byKey[key]
	return sr, ok
}

// EvalRule computes the rule's match set and statistics in two pool rounds:
// one task runs match.NewFilter, whose per-node sets hold every match of Q
// and so of PR ⊇ Q; then one confirm task per chunk, restricted to the
// filter's sets. When the filter is exact and the rule y-free, S(x) is the
// answer and there is one chunk. The chunks are contiguous index ranges of
// the ascending centres, so their matches concatenate in order. The chunk
// tasks read the sets concurrently; the filter is released after every
// task has returned.
func (s *Snapshot) EvalRule(sr *ServedRule, pool *Pool) *RuleEval {
	var f *match.Filter
	pool.runOne(func() { f = match.NewFilter(sr.Rule.Q, s.G) })
	defer f.Release()
	n, cs := s.workers, s.centres
	if f.Exact() && sr.Rule.YFree() {
		n = 1 // the confirm binds no matcher: one walk against Keep, on this goroutine
	}
	parts := make([]eip.Partial, n)
	tasks := make([]func(), n)
	for i := range tasks {
		lo, hi := i*len(cs.Nodes)/n, (i+1)*len(cs.Nodes)/n
		tasks[i] = func() { parts[i] = s.confirm(sr, eip.Centers{Nodes: cs.Nodes[lo:hi], Class: cs.Class[lo:hi]}, f) }
	}
	pool.Do(tasks...)

	ev := &RuleEval{Key: sr.Key, Matches: []graph.NodeID{}, Survivors: f.Kept()} // [] when empty, as a union is
	for _, p := range parts {
		ev.Matches = append(ev.Matches, p.Q...)
		ev.Stats.SuppR += p.R
		ev.Stats.SuppQqb += p.Qqb
	}
	return s.settle(ev)
}

// settle completes ev on s from its matches and its supp(R,G) and
// supp(Qq̄,G) counts: supp(Q,G), the snapshot-wide supports, conf and the
// centre count, and, unless ev carries one already, a lazy encoding of its
// matches. An entry whose matches change must come with encoded nil.
func (s *Snapshot) settle(ev *RuleEval) *RuleEval {
	ev.Stats.SuppQ, ev.Stats.SuppQ1, ev.Stats.SuppQbar = len(ev.Matches), s.SuppQ1, s.SuppQbar
	ev.Conf = ev.Stats.Conf()
	ev.Centres = len(s.centres.Nodes)
	if ev.encoded == nil {
		ids := ev.Matches
		ev.encoded = sync.OnceValue(func() []byte { return encodeIDs(ids) })
	}
	return ev
}

// confirm is algorithm Match's per-candidate step for sr over cs on s.G, and
// the only code in this package that binds a matcher: pooled plain matchers
// for Q and, unless the rule is y-free (core.Rule.YFree: PR ⇔ Q at a Pq
// centre), PR, restricted to f's sets when f is not nil, run by
// eip.EvalCenters — early-terminating HasMatchAt, PR first, and the PR ⇒ Q
// containment reuse of Example 10. An exact f is Q's test on its own, and
// no Q matcher is bound. HasMatchAt rejects x outside S(x) too, but Keep
// inlines here and saves a call per rejected centre.
func (s *Snapshot) confirm(sr *ServedRule, cs eip.Centers, f *match.Filter) eip.Partial {
	var matchPR func(graph.NodeID) bool
	if !sr.Rule.YFree() {
		prm := match.NewMatcher(sr.pr, s.G, match.Options{})
		defer prm.Release()
		if f != nil {
			f.Restrict(prm)
		}
		matchPR = func(v graph.NodeID) bool { return (f == nil || f.Keep(v)) && prm.HasMatchAt(v) }
	}
	if f != nil && f.Exact() {
		return eip.EvalCenters(matchPR, f.Keep, cs)
	}
	qm := match.NewMatcher(sr.Rule.Q, s.G, match.Options{})
	defer qm.Release()
	if f != nil {
		f.Restrict(qm)
	}
	return eip.EvalCenters(matchPR,
		func(v graph.NodeID) bool { return (f == nil || f.Keep(v)) && qm.HasMatchAt(v) },
		cs)
}
