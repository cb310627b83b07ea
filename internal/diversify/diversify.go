// Package diversify implements the diversification machinery of Section 4
// of "Association Rules with Graph Patterns" (PVLDB 2015): the Jaccard
// difference diff(R1,R2) over match sets, the bi-criteria objective F(Lk),
// the pairwise objective F'(R,R'), the greedy max-sum dispersion selection
// with approximation ratio 2, an exact brute-force oracle for tests, and the
// incremental top-k pair queue of procedure incDiv.
package diversify

import (
	"math"

	"gpar/internal/graph"
)

// Entry is one candidate rule as the diversifier sees it: an identity, a
// confidence, and the match set PR(x,G) it covers (sorted node IDs).
//
// IDs are compact per-run interned rule identifiers (DMine's keySeq); the
// printable "R%05d" form exists only at API boundaries. B optionally
// carries the match set in bitset form — when both sides of a comparison
// have one, the pairwise distance is computed by popcount instead of a
// slice merge, with bit-identical results.
type Entry struct {
	ID   uint32
	Conf float64
	Set  []graph.NodeID // must be sorted ascending
	B    Bits           // optional bitset form of Set
}

// Diff returns the Jaccard distance 1 - |a∩b| / |a∪b| between two sorted
// match sets. Two empty sets have distance 0 (identical).
func Diff(a, b []graph.NodeID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return 1 - float64(inter)/float64(union)
}

// Params fixes the objective's constants: k, the user balance λ, and the
// normalizer N = supp(q,G) · supp(q̄,G) (a constant for a fixed predicate).
type Params struct {
	K      int
	Lambda float64
	N      float64
}

// norm guards against the degenerate N = 0 or k = 1 cases.
func (p Params) norm() (confW, divW float64) {
	n := p.N
	if n <= 0 {
		n = 1
	}
	km1 := float64(p.K - 1)
	if km1 <= 0 {
		km1 = 1
	}
	return (1 - p.Lambda) / n, 2 * p.Lambda / km1
}

// F computes the max-sum diversification objective of Section 4.1:
//
//	F(Lk) = (1-λ) Σ conf(Ri)/N + (2λ/(k-1)) Σ_{i<j} diff(Ri, Rj).
func F(entries []Entry, p Params) float64 {
	confW, divW := p.norm()
	var sum float64
	for i := range entries {
		sum += confW * entries[i].Conf
		for j := i + 1; j < len(entries); j++ {
			sum += divW * diff(&entries[i], &entries[j])
		}
	}
	return sum
}

// FPrime computes the revised pairwise objective of procedure incDiv:
//
//	F'(R,R') = (1-λ)/(N(k-1)) (conf(R)+conf(R')) + (2λ/(k-1)) diff(R,R').
func FPrime(a, b Entry, p Params) float64 {
	return fprime(&a, &b, p, diff(&a, &b))
}

// fprime is FPrime with the diff already in hand (the queue memoizes it).
func fprime(a, b *Entry, p Params, d float64) float64 {
	confW, divW := p.norm()
	km1 := float64(p.K - 1)
	if km1 <= 0 {
		km1 = 1
	}
	return confW/km1*(a.Conf+b.Conf) + divW*d
}

// Greedy selects up to k entries by the greedy max-sum dispersion strategy
// (Gollapudi & Sharma): repeatedly pick the unused pair maximizing F',
// ⌈k/2⌉ times, and return the union. For odd k the lowest-contribution
// element of the final selection is dropped. The result preserves no
// particular order. Approximation ratio 2 with respect to F.
func Greedy(entries []Entry, p Params) []Entry {
	if p.K <= 0 || len(entries) == 0 {
		return nil
	}
	if len(entries) <= p.K {
		return append([]Entry(nil), entries...)
	}
	used := make([]bool, len(entries))
	var picked []int
	pairs := (p.K + 1) / 2
	for pi := 0; pi < pairs; pi++ {
		bi, bj, best := -1, -1, math.Inf(-1)
		for i := range entries {
			if used[i] {
				continue
			}
			for j := i + 1; j < len(entries); j++ {
				if used[j] {
					continue
				}
				if f := FPrime(entries[i], entries[j], p); f > best {
					best, bi, bj = f, i, j
				}
			}
		}
		if bi < 0 {
			break
		}
		used[bi], used[bj] = true, true
		picked = append(picked, bi, bj)
	}
	if len(picked) > p.K {
		// Drop the element whose removal reduces F the least.
		worst, worstIx := math.Inf(1), -1
		for pi, i := range picked {
			contrib := contribution(entries, picked, i, p)
			if contrib < worst {
				worst, worstIx = contrib, pi
			}
		}
		picked = append(picked[:worstIx], picked[worstIx+1:]...)
	}
	out := make([]Entry, 0, len(picked))
	for _, i := range picked {
		out = append(out, entries[i])
	}
	return out
}

// contribution measures entry i's marginal share of F within the selection.
func contribution(entries []Entry, picked []int, i int, p Params) float64 {
	confW, divW := p.norm()
	c := confW * entries[i].Conf
	for _, j := range picked {
		if j != i {
			c += divW * diff(&entries[i], &entries[j])
		}
	}
	return c
}

// BruteForce returns the exact F-maximizing subset of size ≤ k. It is
// exponential and intended as a test oracle on small inputs.
func BruteForce(entries []Entry, p Params) []Entry {
	n := len(entries)
	if p.K <= 0 || n == 0 {
		return nil
	}
	k := p.K
	if k > n {
		k = n
	}
	var best []Entry
	bestF := math.Inf(-1)
	idx := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			sel := make([]Entry, k)
			for i, ix := range idx {
				sel[i] = entries[ix]
			}
			if f := F(sel, p); f > bestF {
				bestF = f
				best = sel
			}
			return
		}
		for i := start; i < n; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return best
}
