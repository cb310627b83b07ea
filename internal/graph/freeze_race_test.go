package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentFreezeOnFrozenGraph exercises the Freeze contract: once a
// graph is frozen, Freeze and every read path may be called from any number
// of goroutines. Matchers call Freeze unconditionally, so this is exactly
// the shape of concurrent rule evaluation over a shared snapshot graph.
// Run with -race.
func TestConcurrentFreezeOnFrozenGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60, 240)
	g.Freeze() // freeze-before-share: the one synchronized call

	labels := []Label{1, 2, 3, 4}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Freeze() // must be a safe no-op
				v := NodeID((w*31 + i) % g.NumNodes())
				u := NodeID((w*17 + 3*i) % g.NumNodes())
				l := labels[i%len(labels)]
				g.HasEdge(v, u, l)
				g.OutRangeL(v, l)
				g.InRangeL(u, l)
				g.NodesWithLabel(g.Label(v))
				g.AppendNeighborhood(nil, v, 2)
			}
		}(w)
	}
	wg.Wait()
}

// TestRangeLMatchesScan: the label-range lookups agree with a scan of the
// as-built adjacency on random graphs.
func TestRangeLMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 20, 90)
		type key struct {
			v NodeID
			l Label
		}
		scan := func(adj []Edge, l Label) []Edge {
			var out []Edge
			for _, e := range adj {
				if e.Label == l {
					out = append(out, e)
				}
			}
			return out
		}
		wantOut := map[key][]Edge{}
		wantIn := map[key][]Edge{}
		labels := []Label{1, 2, 3, 4, 5}
		for v := 0; v < g.NumNodes(); v++ {
			for _, l := range labels {
				wantOut[key{NodeID(v), l}] = scan(g.Out(NodeID(v)), l)
				wantIn[key{NodeID(v), l}] = scan(g.In(NodeID(v)), l)
			}
		}
		g.Freeze()
		sameSet := func(a, b []Edge) bool {
			if len(a) != len(b) {
				return false
			}
			seen := map[Edge]int{}
			for _, e := range a {
				seen[e]++
			}
			for _, e := range b {
				if seen[e] == 0 {
					return false
				}
				seen[e]--
			}
			return true
		}
		for k, want := range wantOut {
			if got := g.OutRangeL(k.v, k.l); !sameSet(got, want) {
				t.Fatalf("seed %d: OutRangeL(%d,%d) = %v, want %v", seed, k.v, k.l, got, want)
			}
		}
		for k, want := range wantIn {
			if got := g.InRangeL(k.v, k.l); !sameSet(got, want) {
				t.Fatalf("seed %d: InRangeL(%d,%d) = %v, want %v", seed, k.v, k.l, got, want)
			}
		}
	}
}
