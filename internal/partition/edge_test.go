package partition

import (
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
)

// The serving subsystem (internal/serve) builds fragments once per
// snapshot and reuses them across requests, which leans on the degenerate
// corners of this package: n = 1 partitions and empty candidate lists.

// TestWholeVsPartitionN1 checks that a one-fragment partition is
// observationally equivalent to Whole for anchored matching: same owned
// centers and the full d-neighborhood of every center present.
// minNodeLabel returns the smallest node label present in g.
func minNodeLabel(g *graph.Graph) graph.Label {
	l := g.Label(0)
	for v := 1; v < g.NumNodes(); v++ {
		l = min(l, g.Label(graph.NodeID(v)))
	}
	return l
}

func TestWholeVsPartitionN1(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Synthetic(syms, 200, 500, 3)
	label := minNodeLabel(g)
	cands := g.NodesWithLabel(label)
	if len(cands) == 0 {
		t.Fatal("fixture has no candidates")
	}
	const d = 2

	whole := Whole(g, cands)
	frags := Partition(g, cands, 1, d)
	if len(frags) != 1 {
		t.Fatalf("n=1 partition produced %d fragments", len(frags))
	}
	f := frags[0]

	if len(f.Centers) != len(whole.Centers) {
		t.Fatalf("centers: %d, whole has %d", len(f.Centers), len(whole.Centers))
	}
	got := make(map[graph.NodeID]bool, len(f.Centers))
	for _, c := range f.Centers {
		got[f.Global(c)] = true
	}
	for _, c := range cands {
		if !got[c] {
			t.Errorf("candidate %d not owned by the single fragment", c)
		}
	}
	// Every center's d-neighborhood is preserved node-for-node.
	for _, vx := range cands {
		lv, ok := f.Local(vx)
		if !ok {
			t.Fatalf("candidate %d missing from fragment", vx)
		}
		want := g.AppendNeighborhood(nil, vx, d)
		gotHood := f.G.AppendNeighborhood(nil, lv, d)
		if len(gotHood) != len(want) {
			t.Errorf("candidate %d: neighborhood %d nodes, want %d", vx, len(gotHood), len(want))
		}
	}
	// Whole keeps the original IDs; its Local must be the identity.
	for _, c := range whole.Centers {
		if lv, ok := whole.Local(c); !ok || lv != c {
			t.Errorf("Whole.Local(%d) = (%d,%v), want identity", c, lv, ok)
		}
	}
}

// TestPartitionEmptyCandidates: no candidates still yields n well-formed,
// empty fragments (the serve-then-mine startup path).
func TestPartitionEmptyCandidates(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Synthetic(syms, 50, 100, 1)
	frags := Partition(g, nil, 3, 2)
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	for i, f := range frags {
		if len(f.Centers) != 0 || f.G.NumNodes() != 0 || f.Size() != 0 {
			t.Errorf("fragment %d not empty: centers=%d size=%d", i, len(f.Centers), f.Size())
		}
		if _, ok := f.Local(0); ok {
			t.Errorf("fragment %d resolves a node it does not contain", i)
		}
	}
}

// TestWholeEmptyCandidates: Whole with no candidates owns nothing but
// still wraps the full graph.
func TestWholeEmptyCandidates(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Synthetic(syms, 30, 60, 2)
	f := Whole(g, nil)
	if len(f.Centers) != 0 {
		t.Errorf("centers %d, want 0", len(f.Centers))
	}
	if f.Size() != g.Size() {
		t.Errorf("size %d, want %d", f.Size(), g.Size())
	}
}

// TestPartitionFewerCandidatesThanFragments: with n far above the candidate
// count, all but one fragment stay empty.
func TestPartitionFewerCandidatesThanFragments(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Synthetic(syms, 60, 120, 5)
	label := minNodeLabel(g)
	one := g.NodesWithLabel(label)[:1]
	frags := Partition(g, one, 4, 2)
	nonEmpty := 0
	for _, f := range frags {
		if f.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("%d non-empty fragments, want 1", nonEmpty)
	}
}
