// Package bisim implements the bisimulation test used by algorithm DMine to
// cheaply prefilter automorphism (pattern-isomorphism) checks — Lemma 4 of
// "Association Rules with Graph Patterns" (PVLDB 2015): if pattern PR1 is
// not bisimilar to PR2, then R1 is not an automorphism of R2. Only patterns
// that pass the bisimulation test are handed to the exact isomorphism test.
//
// The implementation computes, for each pattern node, the limit coloring of
// forward bisimulation by iterated signature refinement (in the style of the
// fast partition-refinement algorithms of Dovier, Piazza and Policriti).
// Because the coloring is canonical, it can be computed once per pattern and
// cached — this is the "incrementally maintained" relation of Section 4.2:
// adding a new pattern to a collection requires one summary computation, not
// a re-run over all pairs.
package bisim

import (
	"slices"
	"sync"

	"gpar/internal/pattern"
)

// refineDepth is the fixed number of refinement rounds; see AppendSummary.
const refineDepth = 24

// Summary is a canonical bisimulation fingerprint of one pattern: the sorted
// set of limit node colors. Two patterns are bisimilar (in the sense of
// Section 4.2: every node of one has a bisimilar partner in the other, and
// edges can be mutually simulated) if and only if their Summaries are equal,
// up to hash collisions, which only ever cause a wasted exact isomorphism
// test, never a wrong answer.
type Summary []uint64

// Equal reports whether two summaries are identical.
func (s Summary) Equal(t Summary) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// sumScratch is pooled AppendSummary state. DMine summarizes every candidate
// group of every round (in parallel shards), so the refinement must not
// allocate per call: only the returned Summary escapes.
type sumScratch struct {
	colors, next, sig []uint64
	halfLabel         []uint64 // flat out-adjacency: edge label ...
	halfTo            []int32  // ... and target, per edge
	halfOff           []int32  // per-node offsets into halfLabel/halfTo
	fill              []int32  // arena fill cursors while building
}

var sumPool = sync.Pool{New: func() any { return new(sumScratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// AppendSummary computes p's summary and appends it to dst, returning the
// extended slice. Callers that summarize one pattern per candidate group
// (DMine's assembly shards) carve each summary as a view of one recycled
// buffer instead of allocating a fresh slice per group. Multiplicities are
// expanded first; bisimulation ignores copy counts beyond one by definition
// (bisimilar copies collapse into one color), so the expansion does not
// change the answer but keeps the semantics aligned with matching.
func AppendSummary(dst Summary, p *pattern.Pattern) Summary {
	pe := p.Expand()
	n := pe.NumNodes()
	s := sumPool.Get().(*sumScratch)
	defer sumPool.Put(s)
	s.colors = grow(s.colors, n)
	s.next = grow(s.next, n)
	colors, next := s.colors, s.next
	for u := 0; u < n; u++ {
		colors[u] = hash1(uint64(pe.Label(u)), markDesignated(pe, u))
	}
	// Out-adjacency with edge labels, in flat CSR form.
	edges := pe.Edges()
	s.halfOff = grow(s.halfOff, n+1)
	clear(s.halfOff)
	for _, e := range edges {
		s.halfOff[e.From+1]++
	}
	for u := 0; u < n; u++ {
		s.halfOff[u+1] += s.halfOff[u]
	}
	s.halfLabel = grow(s.halfLabel, len(edges))
	s.halfTo = grow(s.halfTo, len(edges))
	s.fill = grow(s.fill, n)
	copy(s.fill, s.halfOff[:n])
	for _, e := range edges {
		i := s.fill[e.From]
		s.fill[e.From]++
		s.halfLabel[i] = uint64(e.Label)
		s.halfTo[i] = int32(e.To)
	}
	// Refine for a fixed number of rounds. The round count must be the same
	// for every pattern: the color of a node after round r is its depth-r
	// unfolding signature, and bisimilar nodes in different patterns have
	// equal signatures only at equal depths. refineDepth bounds the
	// distinguishing depth of any pair of mining-scale patterns; if a pair
	// of larger non-bisimilar patterns were ever to collide, the only cost
	// is one wasted exact isomorphism test (the filter stays sound).
	for round := 0; round < refineDepth; round++ {
		for u := 0; u < n; u++ {
			sig := s.sig[:0]
			for i := s.halfOff[u]; i < s.halfOff[u+1]; i++ {
				sig = append(sig, hash1(s.halfLabel[i], colors[s.halfTo[i]]))
			}
			s.sig = sig
			slices.Sort(sig)
			c := colors[u]
			var prev uint64
			for i, sv := range sig {
				// Bisimulation has set semantics: k edges into one
				// equivalence class count once, so duplicate successor
				// signatures are folded a single time.
				if i > 0 && sv == prev {
					continue
				}
				c = hash1(c, sv)
				prev = sv
			}
			next[u] = c
		}
		colors, next = next, colors
	}
	// Sorted distinct colors; only the appended region escapes.
	start := len(dst)
	dst = append(dst, colors[:n]...)
	region := dst[start:]
	slices.Sort(region)
	region = slices.Compact(region)
	return dst[:start+len(region)]
}

// markDesignated folds the x/y designation into the initial color so that
// rules differing only in which node is designated do not collapse.
func markDesignated(p *pattern.Pattern, u int) uint64 {
	switch {
	case u == p.X:
		return 1
	case u == p.Y:
		return 2
	default:
		return 0
	}
}

// Bisimilar reports whether p and q pass the Lemma 4 prefilter. Callers
// that test one pattern against many should compute each Summary once and
// compare the results (DMine appends them to a recycled buffer with
// AppendSummary); an earlier string-keyed summary cache cost more in key
// rendering than recomputation and was removed.
func Bisimilar(p, q *pattern.Pattern) bool {
	return AppendSummary(nil, p).Equal(AppendSummary(nil, q))
}

// hash1 is FNV-1a over the 16 little-endian bytes of (a, b), computed
// inline: byte-for-byte identical to hash/fnv on the same buffer, but with
// no hasher or buffer allocation — it runs n·refineDepth·deg times per
// AppendSummary, squarely on the mining hot path.
func hash1(a, b uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= (a >> (8 * i)) & 0xff
		h *= prime64
	}
	for i := 0; i < 8; i++ {
		h ^= (b >> (8 * i)) & 0xff
		h *= prime64
	}
	return h
}
