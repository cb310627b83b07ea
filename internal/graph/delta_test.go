package graph

import (
	"errors"
	"slices"
	"testing"
)

// deltaFixture builds a small frozen graph:
//
//	0:A -x-> 1:B -y-> 2:C
//	0:A -x-> 2:C
//	3:A (isolated)
func deltaFixture(t testing.TB) (*Graph, map[string]Label) {
	t.Helper()
	g := New(nil)
	s := g.Symbols()
	lbl := map[string]Label{}
	for _, n := range []string{"A", "B", "C", "x", "y", "z"} {
		lbl[n] = s.Intern(n)
	}
	g.AddNodeL(lbl["A"])
	g.AddNodeL(lbl["B"])
	g.AddNodeL(lbl["C"])
	g.AddNodeL(lbl["A"])
	g.AddEdgeL(0, 1, lbl["x"])
	g.AddEdgeL(1, 2, lbl["y"])
	g.AddEdgeL(0, 2, lbl["x"])
	g.Freeze()
	return g, lbl
}

func TestApplyDeltaBasic(t *testing.T) {
	g, lbl := deltaFixture(t)
	d, err := g.ApplyDelta([]DeltaOp{
		{Kind: DeltaAddNode, Label: lbl["B"]}, // node 4
		{Kind: DeltaAddEdge, From: 4, To: 2, Label: lbl["z"]},
		{Kind: DeltaDelEdge, From: 0, To: 2, Label: lbl["x"]},
		{Kind: DeltaSetLabel, Node: 3, Label: lbl["C"]},
	})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if !d.Overlaid() {
		t.Fatalf("derived graph should be overlaid")
	}
	if d.NumNodes() != 5 || d.NumEdges() != 3 {
		t.Fatalf("derived |V|=%d |E|=%d, want 5, 3", d.NumNodes(), d.NumEdges())
	}
	if d.Label(4) != lbl["B"] || d.Label(3) != lbl["C"] {
		t.Fatalf("derived labels wrong: node4=%v node3=%v", d.Label(4), d.Label(3))
	}
	if !d.HasEdge(4, 2, lbl["z"]) {
		t.Fatalf("added edge missing")
	}
	if d.HasEdge(0, 2, lbl["x"]) {
		t.Fatalf("deleted edge still present")
	}
	if got := d.OutRangeL(0, lbl["x"]); len(got) != 1 || got[0].To != 1 {
		t.Fatalf("OutRangeL(0,x) = %v, want [{1 x}]", got)
	}
	if got := d.InRangeL(2, lbl["z"]); len(got) != 1 || got[0].To != 4 {
		t.Fatalf("InRangeL(2,z) = %v, want [{4 z}]", got)
	}
	if got := d.NodesWithLabel(lbl["A"]); !slices.Equal(got, []NodeID{0}) {
		t.Fatalf("NodesWithLabel(A) = %v, want [0]", got)
	}
	if got := d.NodesWithLabel(lbl["C"]); !slices.Equal(got, []NodeID{2, 3}) {
		t.Fatalf("NodesWithLabel(C) = %v, want [2 3]", got)
	}
	if got := d.NodesWithLabel(lbl["B"]); !slices.Equal(got, []NodeID{1, 4}) {
		t.Fatalf("NodesWithLabel(B) = %v, want [1 4]", got)
	}

	// The base graph is untouched.
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("base mutated: |V|=%d |E|=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 2, lbl["x"]) || g.Label(3) != lbl["A"] {
		t.Fatalf("base mutated by delta")
	}
	if g.Overlaid() || g.OverlayOps() != 0 {
		t.Fatalf("base should not be overlaid")
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	g, lbl := deltaFixture(t)
	cases := []struct {
		name string
		ops  []DeltaOp
	}{
		{"bad node label", []DeltaOp{{Kind: DeltaAddNode, Label: 99}}},
		{"zero node label", []DeltaOp{{Kind: DeltaAddNode}}},
		{"unknown from", []DeltaOp{{Kind: DeltaAddEdge, From: 9, To: 0, Label: lbl["x"]}}},
		{"unknown to", []DeltaOp{{Kind: DeltaAddEdge, From: 0, To: 9, Label: lbl["x"]}}},
		{"negative node", []DeltaOp{{Kind: DeltaAddEdge, From: -1, To: 0, Label: lbl["x"]}}},
		{"bad edge label", []DeltaOp{{Kind: DeltaAddEdge, From: 0, To: 3, Label: -2}}},
		{"duplicate edge", []DeltaOp{{Kind: DeltaAddEdge, From: 0, To: 1, Label: lbl["x"]}}},
		{"dup within batch", []DeltaOp{
			{Kind: DeltaAddEdge, From: 3, To: 0, Label: lbl["y"]},
			{Kind: DeltaAddEdge, From: 3, To: 0, Label: lbl["y"]},
		}},
		{"missing edge", []DeltaOp{{Kind: DeltaDelEdge, From: 0, To: 1, Label: lbl["y"]}}},
		{"del unknown node", []DeltaOp{{Kind: DeltaDelEdge, From: 0, To: 42, Label: lbl["x"]}}},
		{"relabel unknown", []DeltaOp{{Kind: DeltaSetLabel, Node: 77, Label: lbl["A"]}}},
		{"relabel bad label", []DeltaOp{{Kind: DeltaSetLabel, Node: 0, Label: 99}}},
		{"unknown kind", []DeltaOp{{Kind: 42}}},
	}
	for _, tc := range cases {
		d, err := g.ApplyDelta(tc.ops)
		if err == nil || d != nil {
			t.Fatalf("%s: want error, got graph %v err %v", tc.name, d, err)
		}
		var de *DeltaError
		if !errors.As(err, &de) {
			t.Fatalf("%s: error is %T, want *DeltaError", tc.name, err)
		}
		if de.Index != len(tc.ops)-1 {
			t.Fatalf("%s: error at op %d, want %d", tc.name, de.Index, len(tc.ops)-1)
		}
		if de.Error() == "" {
			t.Fatalf("%s: empty error text", tc.name)
		}
	}
	// Atomicity: a failing batch with a valid prefix leaves no trace.
	_, err := g.ApplyDelta([]DeltaOp{
		{Kind: DeltaAddNode, Label: lbl["A"]},
		{Kind: DeltaAddEdge, From: 0, To: 3, Label: lbl["z"]},
		{Kind: DeltaAddEdge, From: 0, To: 99, Label: lbl["z"]},
	})
	if err == nil {
		t.Fatalf("want error")
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 || g.HasEdge(0, 3, lbl["z"]) {
		t.Fatalf("failed batch mutated base")
	}
}

func TestApplyDeltaStacking(t *testing.T) {
	g, lbl := deltaFixture(t)
	d1, err := g.ApplyDelta([]DeltaOp{{Kind: DeltaAddEdge, From: 3, To: 0, Label: lbl["y"]}})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := d1.ApplyDelta([]DeltaOp{
		{Kind: DeltaDelEdge, From: 3, To: 0, Label: lbl["y"]},
		{Kind: DeltaAddEdge, From: 2, To: 3, Label: lbl["z"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d2.OverlayOps() != 3 {
		t.Fatalf("cumulative ops = %d, want 3", d2.OverlayOps())
	}
	if d2.HasEdge(3, 0, lbl["y"]) || !d2.HasEdge(2, 3, lbl["z"]) {
		t.Fatalf("stacked overlay reads wrong")
	}
	// d1 is itself immutable under d2's batch.
	if !d1.HasEdge(3, 0, lbl["y"]) || d1.HasEdge(2, 3, lbl["z"]) {
		t.Fatalf("stacking mutated intermediate overlay")
	}
	if got := d2.DeltaTouched(); !slices.Equal(got, []NodeID{0, 2, 3}) {
		t.Fatalf("DeltaTouched = %v, want [0 2 3]", got)
	}
}

func TestCompactCopy(t *testing.T) {
	g, lbl := deltaFixture(t)
	d, err := g.ApplyDelta([]DeltaOp{
		{Kind: DeltaAddNode, Label: lbl["C"]},
		{Kind: DeltaAddEdge, From: 4, To: 1, Label: lbl["x"]},
		{Kind: DeltaDelEdge, From: 1, To: 2, Label: lbl["y"]},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := d.CompactCopy()
	if c.Overlaid() {
		t.Fatalf("compacted copy should have no overlay")
	}
	if c.NumNodes() != d.NumNodes() || c.NumEdges() != d.NumEdges() {
		t.Fatalf("compacted size differs")
	}
	for v := NodeID(0); int(v) < c.NumNodes(); v++ {
		if c.Label(v) != d.Label(v) {
			t.Fatalf("label mismatch at %d", v)
		}
		if !slices.Equal(c.Out(v), d.Out(v)) || !slices.Equal(c.In(v), d.In(v)) {
			t.Fatalf("adjacency mismatch at %d", v)
		}
	}
	for _, l := range lbl {
		if !slices.Equal(c.NodesWithLabel(l), d.NodesWithLabel(l)) {
			t.Fatalf("NodesWithLabel(%d) mismatch", l)
		}
	}
}

func TestLabelWithinDistance(t *testing.T) {
	g, lbl := deltaFixture(t)
	// 0:A -x-> 1:B -y-> 2:C, 0 -x-> 2, 3:A isolated.
	cases := []struct {
		v    NodeID
		l    Label
		max  int
		want int
	}{
		{0, lbl["A"], 2, 0},
		{0, lbl["B"], 2, 1},
		{1, lbl["A"], 2, 1},
		{3, lbl["B"], 3, -1}, // isolated
		{1, lbl["C"], 0, -1}, // max too small
		{2, lbl["B"], 2, 1},  // via in-edge
	}
	for _, tc := range cases {
		if got := g.LabelWithinDistance(tc.v, tc.l, tc.max); got != tc.want {
			t.Fatalf("LabelWithinDistance(%d, %d, %d) = %d, want %d",
				tc.v, tc.l, tc.max, got, tc.want)
		}
	}
	// Overlay-aware: adding an edge brings the label closer.
	d, err := g.ApplyDelta([]DeltaOp{{Kind: DeltaAddEdge, From: 3, To: 1, Label: lbl["z"]}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.LabelWithinDistance(3, lbl["B"], 3); got != 1 {
		t.Fatalf("overlay LabelWithinDistance = %d, want 1", got)
	}
}
