// Package core defines graph-pattern association rules (GPARs) and their
// topological support and confidence metrics — the primary contribution of
// "Association Rules with Graph Patterns" (Fan, Wang, Wu, Xu; PVLDB 2015),
// Sections 2.2 and 3.
//
// A GPAR R(x,y): Q(x,y) ⇒ q(x,y) pairs an antecedent graph pattern Q with a
// consequent edge predicate q. Support counts distinct matches of the
// designated node x (anti-monotonic), and confidence is a Bayes-Factor
// style measure under the local closed world assumption (LCWA), with the
// paper's two alternatives (PCA confidence, minimum-image-based confidence)
// also provided.
package core

import (
	"fmt"
	"math"
	"strings"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// Predicate is the consequent q(x, y): an edge labeled EdgeLabel from a node
// labeled XLabel to a node labeled YLabel. Value bindings (e.g. y = fake)
// are expressed by YLabel being a constant-valued label.
type Predicate struct {
	XLabel    graph.Label
	EdgeLabel graph.Label
	YLabel    graph.Label
}

// String renders the predicate using the symbol table.
func (p Predicate) String(syms *graph.Symbols) string {
	return fmt.Sprintf("%s(%s, %s)", syms.Name(p.EdgeLabel), syms.Name(p.XLabel), syms.Name(p.YLabel))
}

// ParsePredicate reads the command-line form "xLabel,edgeLabel,yLabel"
// (spaces around a name are dropped). It interns x, then the edge, then y:
// the order fixes the label numbers in a fresh symbol table, and DMine
// breaks ties by label number.
func ParsePredicate(syms *graph.Symbols, s string) (Predicate, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return Predicate{}, fmt.Errorf("predicate must be xLabel,edgeLabel,yLabel; got %q", s)
	}
	var labels [3]graph.Label
	for i, name := range parts {
		labels[i] = syms.Intern(strings.TrimSpace(name))
	}
	return Predicate{XLabel: labels[0], EdgeLabel: labels[1], YLabel: labels[2]}, nil
}

// Rule is a GPAR R(x,y): Q(x,y) ⇒ q(x,y). Q.X must be set and labeled
// Pred.XLabel. Q.Y is either pattern.NoNode (the consequent's y is a fresh
// node) or a node labeled Pred.YLabel.
type Rule struct {
	Q    *pattern.Pattern
	Pred Predicate
}

// PR returns the pattern PR of Section 2.2: Q extended with the consequent
// edge q(x, y). When Q has no designated y, a fresh y node is appended.
func (r *Rule) PR() *pattern.Pattern {
	return r.PRInto(pattern.New(r.Q.Symbols()))
}

// PRInto is PR building into dst (reusing its storage), for hot paths that
// probe PR per candidate and recycle the scratch pattern. dst must not
// alias r.Q.
func (r *Rule) PRInto(dst *pattern.Pattern) *pattern.Pattern {
	p := r.Q.CloneInto(dst)
	y := p.Y
	if y == pattern.NoNode {
		y = p.AddNodeL(r.Pred.YLabel)
		p.Y = y
	}
	p.AddEdgeL(p.X, y, r.Pred.EdgeLabel)
	return p
}

// YFree reports whether Q designates no y and no node of Q, x included,
// carries the consequent's y label. PR's fresh y then cannot collide with
// any image of Q, so at a Pq centre PR matches exactly where Q does:
// PR(x,G) = Q(x,G) ∩ Pq(x,G).
func (r *Rule) YFree() bool {
	for u := range r.Q.NumNodes() {
		if r.Q.Label(u) == r.Pred.YLabel {
			return false
		}
	}
	return r.Q.Y == pattern.NoNode
}

// Radius returns r(PR, x), the radius the DMP bound d constrains.
func (r *Rule) Radius() int {
	return r.PR().RadiusAt(r.Q.X)
}

// Nontrivial reports whether the rule satisfies the three conditions of
// Section 2.2: PR is connected, Q has at least one edge, and q(x,y) does
// not already appear in Q.
func (r *Rule) Nontrivial() bool {
	if r.Q.NumEdges() == 0 {
		return false
	}
	if r.Q.Y != pattern.NoNode && r.Q.HasEdge(r.Q.X, r.Q.Y, r.Pred.EdgeLabel) {
		return false
	}
	return r.PR().Connected()
}

// maxExpandedNodes bounds |Vp| after multiplicity expansion: Q.Expand
// builds C(u) copies of a node with a quadratic edge dedup, so a rule file
// could otherwise ask one match for billions of nodes. Rules the paper and
// the miner produce expand to a handful.
const maxExpandedNodes = 32

// Validate checks structural well-formedness and returns a descriptive
// error for malformed rules (missing x, label mismatches, an antecedent
// that expands past maxExpandedNodes).
func (r *Rule) Validate() error {
	if r.Q == nil {
		return fmt.Errorf("core: rule has nil antecedent")
	}
	if r.Q.X == pattern.NoNode {
		return fmt.Errorf("core: antecedent has no designated x")
	}
	if r.Q.Label(r.Q.X) != r.Pred.XLabel {
		return fmt.Errorf("core: x label %d does not match predicate x label %d", r.Q.Label(r.Q.X), r.Pred.XLabel)
	}
	if r.Q.Y != pattern.NoNode && r.Q.Label(r.Q.Y) != r.Pred.YLabel {
		return fmt.Errorf("core: y label %d does not match predicate y label %d", r.Q.Label(r.Q.Y), r.Pred.YLabel)
	}
	n := 0
	for u := range r.Q.NumNodes() {
		k := r.Q.Mult(u)
		if u == r.Q.X || u == r.Q.Y {
			k = 1 // designated nodes are never expanded
		}
		if k > maxExpandedNodes-n {
			return fmt.Errorf("core: antecedent expands to more than %d nodes", maxExpandedNodes)
		}
		n += k
	}
	return nil
}

// Clone returns a deep copy of the rule.
func (r *Rule) Clone() *Rule {
	return &Rule{Q: r.Q.Clone(), Pred: r.Pred}
}

// Size returns |Q| = |Vp| + |Ep| of the antecedent (before expansion).
func (r *Rule) Size() int { return r.Q.Size() }

// String renders the rule for logs and the case-study output.
func (r *Rule) String() string {
	return fmt.Sprintf("%s => %s", r.Q.String(), r.Pred.String(r.Q.Symbols()))
}

// Stats carries the five counters of Section 3 for one rule on one graph
// (or one fragment — the counters are summable across center-disjoint
// fragments, which is what DMine's message assembly does).
type Stats struct {
	SuppR    int // supp(R,G)  = ||PR(x,G)||
	SuppQ    int // supp(Q,G)  = ||Q(x,G)||
	SuppQqb  int // supp(Qq̄,G) = ||Q(x,G) ∩ Pq̄(x,G)||
	SuppQ1   int // supp(q,G)  = ||Pq(x,G)||
	SuppQbar int // supp(q̄,G)
}

// Trivial classifies the two degenerate cases of Section 3. It returns
// (true, reason) when the rule is trivial on this graph.
func (s Stats) Trivial() (bool, string) {
	if s.SuppQ1 == 0 {
		return true, "supp(q,G) = 0: q(x,y) specifies no user in G"
	}
	if s.SuppQqb == 0 {
		return true, "supp(Qq̄,G) = 0: R holds as a logic rule on G"
	}
	return false, ""
}

// Conf returns the revised Bayes Factor confidence of Section 3:
//
//	conf(R,G) = supp(R,G)·supp(q̄,G) / (supp(Qq̄,G)·supp(q,G))
//
// The two trivial cases return +Inf (logic rule: supp(Qq̄) = 0 with
// non-zero numerator) and NaN (supp(q) = 0, an uninteresting rule the
// mining process discards).
func (s Stats) Conf() float64 {
	if s.SuppQ1 == 0 {
		return math.NaN()
	}
	num := float64(s.SuppR) * float64(s.SuppQbar)
	den := float64(s.SuppQqb) * float64(s.SuppQ1)
	if den == 0 {
		// supp(Qq̄) = 0: no antecedent match contradicts the rule — the
		// "logic rule" trivial case, regardless of the numerator.
		return math.Inf(1)
	}
	return num / den
}

// PCAConf returns the PCA confidence alternative evaluated in Section 6:
// supp(R,G) / supp(Qq̄,G) under the LCWA.
func (s Stats) PCAConf() float64 {
	if s.SuppQqb == 0 {
		return math.Inf(1)
	}
	return float64(s.SuppR) / float64(s.SuppQqb)
}

// StdConf returns the conventional association-rule confidence
// supp(R,G)/supp(Q,G), which Section 3 argues is blind to unknown cases.
func (s Stats) StdConf() float64 {
	if s.SuppQ == 0 {
		return 0
	}
	return float64(s.SuppR) / float64(s.SuppQ)
}
