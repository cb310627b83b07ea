package bisim

import (
	"math/rand"
	"testing"

	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// Micro-benchmark backing Lemma 4's point: the bisimulation summary is far
// cheaper than an exact isomorphism test, so using it as a prefilter saves
// work whenever patterns differ.

func randomPatterns(n int) []*pattern.Pattern {
	rng := rand.New(rand.NewSource(1))
	syms := graph.NewSymbols()
	labels := []string{"a", "b", "c", "d"}
	out := make([]*pattern.Pattern, n)
	for i := range out {
		p := pattern.New(syms)
		k := 4 + rng.Intn(4)
		for j := 0; j < k; j++ {
			p.AddNode(labels[rng.Intn(4)])
			if j > 0 {
				p.AddEdge(rng.Intn(j), j, "e")
			}
		}
		p.X = 0
		out[i] = p
	}
	return out
}

func BenchmarkSummarize(b *testing.B) {
	ps := randomPatterns(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AppendSummary(nil, ps[i%len(ps)])
	}
}

func BenchmarkPairwiseBisimVsIso(b *testing.B) {
	ps := randomPatterns(32)
	b.Run("bisim-prefilter", func(b *testing.B) {
		sums := make([]Summary, len(ps))
		for i, p := range ps {
			sums[i] = AppendSummary(nil, p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for a := 0; a < len(ps); a++ {
				for c := a + 1; c < len(ps); c++ {
					if sums[a].Equal(sums[c]) {
						ps[a].IsomorphicTo(ps[c])
					}
				}
			}
		}
	})
	b.Run("exact-iso-always", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for a := 0; a < len(ps); a++ {
				for c := a + 1; c < len(ps); c++ {
					ps[a].IsomorphicTo(ps[c])
				}
			}
		}
	})
}
