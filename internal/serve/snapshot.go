package serve

import (
	"fmt"
	"math/bits"
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

	// centres are the XLabel candidates, classified under the LCWA in
	// node-indexed bitsets (patched per delta batch); Nodes aliases the
	// graph's label index. EvalRule walks an exact rule's S(x) against the
	// bitsets, and fans any other rule out over workers contiguous index
	// ranges of Nodes; every range reads the one shared graph.
	centres eip.Centers
	workers int
	// ny counts G's nodes with the predicate's y label (core.Rule.PRAtPq).
	ny int
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
// them), none for a compaction. The class bitsets are s's words, grown to
// g's node count; when the x-label list is another slice, a merge walk of
// the two ascending lists clears the bits of the centres that left it, and
// the new members, all in lcwa, start as Other. The supports are the
// bitsets' counts.
func (s *Snapshot) patch(g *graph.Graph, lcwa []graph.NodeID, cfg Config) *Snapshot {
	pred, old := s.Pred, s.centres
	n := (g.NumNodes() + 63) / 64
	cs := eip.Centers{Nodes: g.NodesWithLabel(pred.XLabel), Pq: make([]uint64, n), Pqbar: make([]uint64, n)}
	copy(cs.Pq, old.Pq)
	copy(cs.Pqbar, old.Pqbar)
	if len(cs.Nodes) != len(old.Nodes) || len(cs.Nodes) > 0 && &cs.Nodes[0] != &old.Nodes[0] {
		j := 0
		for _, v := range old.Nodes {
			for j < len(cs.Nodes) && cs.Nodes[j] < v {
				j++
			}
			if j == len(cs.Nodes) || cs.Nodes[j] != v {
				cs.Set(v, eip.Other)
			}
		}
	}
	for _, v := range lcwa {
		if _, ok := slices.BinarySearch(cs.Nodes, v); ok {
			cs.Set(v, eip.Classify(g, v, pred))
		}
	}
	snap := &Snapshot{
		G:           g,
		Pred:        pred,
		PredDisplay: s.PredDisplay,
		Rules:       s.Rules,
		byKey:       s.byKey,
		centres:     cs,
		workers:     cfg.defaults().Workers,
		ny:          len(g.NodesWithLabel(pred.YLabel)),
	}
	snap.SuppQ1, snap.SuppQbar = cs.Count()
	return snap
}

// RuleByKey resolves a rule key to its served rule.
func (s *Snapshot) RuleByKey(key string) (*ServedRule, bool) {
	sr, ok := s.byKey[key]
	return sr, ok
}

// EvalRule computes the rule's match set and statistics. One pool task
// runs match.NewFilter, whose per-node sets hold every match of Q and so
// of PR ⊇ Q. When the filter is exact, S(x) is the answer, and the same
// task counts the supports from its words (walk). Otherwise a second pool
// round runs one confirm task per chunk, restricted to the filter's sets.
// The chunks are contiguous index ranges of the ascending centres, so
// their matches concatenate in order. The chunk tasks read the sets
// concurrently; the filter is released after every task has returned.
func (s *Snapshot) EvalRule(sr *ServedRule, pool *Pool) *RuleEval {
	var f *match.Filter
	var ev *RuleEval
	pool.runOne(func() {
		f = match.NewFilter(sr.Rule.Q, s.G)
		if f.Exact() {
			ev = s.walk(sr, f)
		}
	})
	defer f.Release()
	if ev != nil {
		return s.settle(ev)
	}
	n, cs := s.workers, s.centres
	parts := make([]eip.Partial, n)
	tasks := make([]func(), n)
	for i := range tasks {
		view := cs
		view.Nodes = cs.Nodes[i*len(cs.Nodes)/n : (i+1)*len(cs.Nodes)/n]
		tasks[i] = func() { parts[i] = s.confirm(sr, view, f) }
	}
	pool.Do(tasks...)

	ev = &RuleEval{Key: sr.Key, Matches: []graph.NodeID{}, Survivors: f.Kept()} // [] when empty, as a union is
	for _, p := range parts {
		ev.Matches = append(ev.Matches, p.Q...)
		ev.Stats.SuppR += p.R
		ev.Stats.SuppQqb += p.Qqb
	}
	return s.settle(ev)
}

// walk evaluates sr from an exact filter's S(x), which is Q(x,G), a word
// at a time and without a per-centre call: the set bits are the matches,
// in ascending order, and each word against the class bitsets counts
// supp(Qq̄,G) and, where PR matches at every Pq match (core.Rule.PRAtPq's
// same), supp(R,G). Where PR matches at none (never), supp(R,G) is 0; any
// other rule confirms PR, restricted to f's sets, at its Pq matches only.
func (s *Snapshot) walk(sr *ServedRule, f *match.Filter) *RuleEval {
	sx := f.XSet()
	pq, pqbar := s.centres.Pq[:len(sx)], s.centres.Pqbar[:len(sx)]
	same, never := sr.Rule.PRAtPq(s.ny)
	var prm *match.Matcher
	if !same && !never {
		prm = match.NewMatcher(sr.pr, s.G, match.Options{})
		defer prm.Release()
		f.Restrict(prm)
	}
	ev := &RuleEval{Key: sr.Key, Matches: make([]graph.NodeID, 0, f.Kept())}
	for i, w := range sx {
		ev.Stats.SuppQqb += bits.OnesCount64(w & pqbar[i])
		if same {
			ev.Stats.SuppR += bits.OnesCount64(w & pq[i])
		}
		for ; w != 0; w &= w - 1 {
			v := graph.NodeID(i*64 + bits.TrailingZeros64(w))
			ev.Matches = append(ev.Matches, v)
			if prm != nil && pq[i]&(1<<(v&63)) != 0 && prm.HasMatchAt(v) {
				ev.Stats.SuppR++
			}
		}
	}
	ev.Survivors = len(ev.Matches)
	return ev
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

// confirm is algorithm Match's per-candidate step for sr over cs on s.G:
// pooled plain matchers for Q and, unless core.Rule.PRAtPq decides PR at
// a Pq centre from Q alone, PR, restricted to f's sets when f is not nil,
// run by eip.EvalCenters — early-terminating HasMatchAt, PR first, and the
// PR ⇒ Q containment reuse of Example 10. HasMatchAt rejects x outside
// S(x) too, but Keep inlines here and saves a call per rejected centre.
func (s *Snapshot) confirm(sr *ServedRule, cs eip.Centers, f *match.Filter) eip.Partial {
	var matchPR func(graph.NodeID) bool
	switch same, never := sr.Rule.PRAtPq(s.ny); {
	case never:
		matchPR = func(graph.NodeID) bool { return false }
	case !same:
		prm := match.NewMatcher(sr.pr, s.G, match.Options{})
		defer prm.Release()
		if f != nil {
			f.Restrict(prm)
		}
		matchPR = func(v graph.NodeID) bool { return (f == nil || f.Keep(v)) && prm.HasMatchAt(v) }
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
