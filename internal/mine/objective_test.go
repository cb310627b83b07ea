package mine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"gpar/internal/diversify"
)

// maxSubsets bounds the brute force of TestDMineObjective: a cell with more
// k-subsets of Σ is logged and skipped, which keeps the test to seconds.
const maxSubsets = 20_000_000

// TestDMineObjective checks what DMine selects against its objective on the
// golden matrix at k ∈ {2, 3, 4}. Result.F must be F recomputed from TopK's
// entries (to 1e-12: TopK is sorted by confidence, the queue sums in its
// own order), and F(TopK) at least half the optimum over every subset of Σ
// of k rules, the pairwise greedy's ratio 2 (Section 4.1). Every ratio is
// logged.
func TestDMineObjective(t *testing.T) {
	for _, c := range goldenMatrix() {
		for _, k := range []int{2, 3, 4} {
			name := fmt.Sprintf("%s k=%d", c.name, k)
			o := c.opts
			o.K = k
			o = o.Defaults()
			res := DMine(c.g, c.pred, o)
			if len(res.All) == 0 {
				t.Fatalf("%s: mined nothing", name)
			}
			st := res.All[0].Stats
			p := diversify.Params{K: k, Lambda: o.Lambda, N: float64(st.SuppQ1) * float64(st.SuppQbar)}
			top := make([]diversify.Entry, len(res.TopK))
			for i, mm := range res.TopK {
				top[i] = diversify.Entry{ID: uint32(mm.id), Conf: mm.Conf, Set: mm.Set}
			}
			if f := diversify.F(top, p); math.Abs(f-res.F) > 1e-12*max(1, math.Abs(f)) {
				t.Errorf("%s: Result.F = %.17g, F(TopK) = %.17g", name, res.F, f)
			}
			if n := binomial(len(res.All), k); n > maxSubsets {
				t.Logf("%s: |Σ| = %d, C(|Σ|, k) = %.3g subsets, skipped", name, len(res.All), n)
				continue
			}
			sigma := make([]diversify.Entry, len(res.All))
			for i, mm := range res.All {
				sigma[i] = diversify.Entry{ID: uint32(mm.id), Conf: mm.Conf, Set: mm.Set}
			}
			opt := diversify.F(bestSubset(sigma, p), p)
			t.Logf("%s: |Σ| = %d, F(TopK) = %.6g, OPT = %.6g, ratio %.3f", name, len(sigma), res.F, opt, res.F/opt)
			if res.F < opt/2-1e-9 {
				t.Errorf("%s: F(TopK) = %.17g is under half of OPT = %.17g", name, res.F, opt)
			}
		}
	}
}

// binomial is C(n, k) as a float, so a large one cannot overflow.
func binomial(n, k int) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// bestSubset is the F-maximizing choice of min(k, |es|) entries, by brute
// force over a precomputed diff matrix: a subset's F grows with it, one
// matrix row per added entry.
func bestSubset(es []diversify.Entry, p diversify.Params) []diversify.Entry {
	n, k := len(es), min(p.K, len(es))
	diff := make([][]float64, n)
	for i := range diff {
		diff[i] = make([]float64, i)
		for j := range diff[i] {
			diff[i][j] = diversify.Diff(es[i].Set, es[j].Set)
		}
	}
	confW, divW := (1-p.Lambda)/p.N, 2*p.Lambda/float64(max(p.K-1, 1))
	var idx, best []int
	bestF := math.Inf(-1)
	var grow func(start int, f float64)
	grow = func(start int, f float64) {
		if len(idx) == k {
			if f > bestF {
				bestF, best = f, slices.Clone(idx)
			}
			return
		}
		for i := start; i < n; i++ {
			g := f + confW*es[i].Conf
			for _, j := range idx {
				g += divW * diff[i][j]
			}
			idx = append(idx, i)
			grow(i+1, g)
			idx = idx[:len(idx)-1]
		}
	}
	grow(0, 0)
	out := make([]diversify.Entry, len(best))
	for i, ix := range best {
		out[i] = es[ix]
	}
	return out
}
