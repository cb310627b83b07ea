package diversify

import (
	"math/rand"
	"slices"
	"testing"

	"gpar/internal/graph"
)

// benchRounds builds a fixed multi-round incDiv workload: each round
// delivers a batch of new entries with random (seeded) support sets over a
// dense center universe, mimicking DMine's per-round Queue.Update calls.
func benchRounds() [][]Entry {
	rng := rand.New(rand.NewSource(11))
	const (
		rounds   = 6
		perRound = 40
		universe = 4000
		supp     = 200
	)
	out := make([][]Entry, rounds)
	id := 0
	for r := range out {
		batch := make([]Entry, perRound)
		for i := range batch {
			set := make([]graph.NodeID, 0, supp)
			seen := make(map[graph.NodeID]bool, supp)
			for len(set) < supp {
				v := graph.NodeID(rng.Intn(universe))
				if !seen[v] {
					seen[v] = true
					set = append(set, v)
				}
			}
			id++
			slices.Sort(set)
			e := Entry{ID: uint32(id), Conf: rng.Float64(), Set: set}
			e.B = MakeBits(e.Set)
			batch[i] = e
		}
		out[r] = batch
	}
	return out
}

// BenchmarkDiversifyUpdate times the incremental top-k maintenance across
// the pre-built rounds, including the pairwise diff computations that
// dominate bestFreePair/bestPartner.
func BenchmarkDiversifyUpdate(b *testing.B) {
	rounds := benchRounds()
	p := Params{K: 10, Lambda: 0.5, N: 1e6}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := NewQueue(p)
		var sigma []Entry
		for _, deltaE := range rounds {
			sigma = append(sigma, deltaE...)
			q.Update(deltaE, sigma)
		}
		if q.Len() == 0 {
			b.Fatal("empty queue")
		}
	}
}
