package snapfile

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"gpar/internal/core"
	"gpar/internal/diskfault"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture builds a small deterministic serving state: a restaurant graph,
// the visit predicate and two rules.
func fixture(t testing.TB) *Data {
	t.Helper()
	syms := graph.NewSymbols()
	g := graph.New(syms)
	cust := make([]graph.NodeID, 6)
	for i := range cust {
		cust[i] = g.AddNode("cust")
	}
	bistro := g.AddNode("restaurant")
	bar := g.AddNode("bar")
	for _, e := range [][2]int{{0, 1}, {1, 0}, {2, 1}, {3, 2}, {4, 1}, {5, 4}} {
		g.AddEdge(cust[e[0]], cust[e[1]], "friend")
	}
	for _, i := range []int{0, 1, 2} {
		g.AddEdge(cust[i], bistro, "visit")
	}
	g.AddEdge(cust[5], bar, "visit")
	pred := core.Predicate{
		XLabel:    syms.Intern("cust"),
		EdgeLabel: syms.Intern("visit"),
		YLabel:    syms.Intern("restaurant"),
	}
	q := pattern.New(syms)
	x := q.AddNode("cust")
	q.X = x
	f := q.AddNode("cust")
	r := q.AddNode("restaurant")
	q.AddEdge(x, f, "friend")
	q.AddEdge(f, r, "visit")
	rule := &core.Rule{Q: q, Pred: pred}
	if err := rule.Validate(); err != nil {
		t.Fatalf("fixture rule: %v", err)
	}
	g.Freeze()
	return &Data{Generation: 7, Graph: g, Pred: pred, Rules: []*core.Rule{rule}}
}

// equalData asserts two snapshots describe the same logical state by
// comparing their canonical encodings.
func equalData(t *testing.T, a, b *Data) {
	t.Helper()
	ea, eb := Encode(a), Encode(b)
	if !bytes.Equal(ea, eb) {
		t.Fatalf("snapshots differ: %d vs %d bytes", len(ea), len(eb))
	}
}

// The encoding is pinned byte-for-byte: any format change must be
// deliberate (bump the version, regenerate with -update).
func TestGoldenBytes(t *testing.T) {
	got := Encode(fixture(t))
	golden := filepath.Join("testdata", "fixture.gpsnap.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("encoding drifted from golden file: %d vs %d bytes, first difference at offset %d", len(got), len(want), i)
	}
}

// Encode → Decode → Encode is byte-identical, and the decoded state's
// labels resolve to the same names.
func TestRoundTrip(t *testing.T) {
	d := fixture(t)
	enc := Encode(d)
	d2, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d2.Generation != d.Generation {
		t.Fatalf("generation %d, want %d", d2.Generation, d.Generation)
	}
	if got := Encode(d2); !bytes.Equal(got, enc) {
		t.Fatal("re-encode is not byte-identical")
	}
	syms, syms2 := d.Graph.Symbols(), d2.Graph.Symbols()
	if syms2.Len() != syms.Len() {
		t.Fatalf("symbol count %d, want %d", syms2.Len(), syms.Len())
	}
	if syms2.Name(d2.Pred.XLabel) != "cust" || syms2.Name(d2.Pred.YLabel) != "restaurant" {
		t.Fatalf("pred decoded as %q/%q", syms2.Name(d2.Pred.XLabel), syms2.Name(d2.Pred.YLabel))
	}
	if len(d2.Rules) != 1 || d2.Rules[0].Key() != d.Rules[0].Key() {
		t.Fatalf("rules did not survive: %v", d2.Rules)
	}
	if d2.Graph.NumNodes() != d.Graph.NumNodes() || d2.Graph.NumEdges() != d.Graph.NumEdges() {
		t.Fatalf("graph %v, want %v", d2.Graph, d.Graph)
	}
}

// A delta overlay encodes identically to its compacted copy: the snapshot
// captures the logical graph, not the physical representation.
func TestOverlayEncodesCanonically(t *testing.T) {
	d := fixture(t)
	syms := d.Graph.Symbols()
	ops := []graph.DeltaOp{
		{Kind: graph.DeltaAddNode, Label: syms.Lookup("cust")},
		{Kind: graph.DeltaAddEdge, From: 8, To: 0, Label: syms.Lookup("friend")},
		{Kind: graph.DeltaDelEdge, From: 5, To: 4, Label: syms.Lookup("friend")},
		{Kind: graph.DeltaSetLabel, Node: 7, Label: syms.Lookup("restaurant")},
	}
	over, err := d.Graph.ApplyDelta(ops)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	do := &Data{Generation: 8, Graph: over, Pred: d.Pred, Rules: d.Rules}
	dc := &Data{Generation: 8, Graph: over.CompactCopy(), Pred: d.Pred, Rules: d.Rules}
	equalData(t, do, dc)
}

// Every truncation of a valid file fails cleanly with a *FormatError —
// nothing panics, nothing half-decodes.
func TestTruncationSweep(t *testing.T) {
	enc := Encode(fixture(t))
	for n := 0; n < len(enc); n++ {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(enc))
		} else {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("truncation to %d: error is %T, want *FormatError", n, err)
			}
		}
	}
}

// Every single-bit flip is caught by the envelope CRC or a section digest.
func TestBitFlipSweep(t *testing.T) {
	enc := Encode(fixture(t))
	for off := 0; off < len(enc); off++ {
		mut := append([]byte(nil), enc...)
		mut[off] ^= 1
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at offset %d decoded successfully", off)
		}
	}
}

// Write is temp + fsync + rename: a crash before the content fsync leaves
// the previous file intact, and a crashed write never leaves a readable
// half-written snapshot under the final name.
func TestWriteCrashSafety(t *testing.T) {
	m := diskfault.NewMemFS()
	if err := m.MkdirAll("data", 0o755); err != nil {
		t.Fatal(err)
	}
	d := fixture(t)
	if err := Write(m, "data/snap.gpsnap", d); err != nil {
		t.Fatalf("first write: %v", err)
	}
	first, err := Read(m, "data/snap.gpsnap")
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	equalData(t, d, first)

	// Second write dies mid-content: only the temp file is affected.
	d2 := fixture(t)
	d2.Generation = 99
	m.Inject(diskfault.Fault{Op: diskfault.OpWrite, Path: ".tmp", ShortWrite: 40, Kill: true})
	if err := Write(m, "data/snap.gpsnap", d2); err == nil {
		t.Fatal("crashed write reported success")
	}
	m.Reboot()
	after, err := Read(m, "data/snap.gpsnap")
	if err != nil {
		t.Fatalf("survivor unreadable after crashed rewrite: %v", err)
	}
	if after.Generation != d.Generation {
		t.Fatalf("generation %d after crash, want the old %d", after.Generation, d.Generation)
	}

	// A lying fsync followed by a crash after rename: the renamed file's
	// content is lost, and Read must reject the empty husk, not serve it.
	m.Inject(diskfault.Fault{Op: diskfault.OpSync, Path: ".tmp", IgnoreSync: true})
	if err := Write(m, "data/snap.gpsnap", d2); err != nil {
		t.Fatalf("write with lying fsync: %v", err)
	}
	m.Crash()
	m.Reboot()
	if _, err := Read(m, "data/snap.gpsnap"); err == nil {
		t.Fatal("torn snapshot decoded successfully")
	}
}

func TestReadMissing(t *testing.T) {
	m := diskfault.NewMemFS()
	if _, err := Read(m, "nope/snap.gpsnap"); !diskfault.IsNotExist(err) {
		t.Fatalf("missing file: %v", err)
	}
}

// FuzzSnapshotDecode hammers the decoder with mutated inputs: it must
// never panic, and any input it accepts must re-encode to a canonical
// fixed point.
func FuzzSnapshotDecode(f *testing.F) {
	enc := Encode(fixture(f))
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte("GPSN"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		canon := Encode(d)
		d2, err := Decode(canon)
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		if !bytes.Equal(Encode(d2), canon) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}

// FuzzGraphSection reaches decodeGraph, which FuzzSnapshotDecode cannot:
// every byte it mutates fails the whole-file CRC. It seals fuzzed node
// labels, out-degrees (one byte each, 0 past the end of degs) and
// (label, to) edge byte pairs as the GRPH payload of a valid envelope.
// Decode must fail with a *FormatError exactly when the arrays are not a
// graph — a label outside the table, a target past the nodes, a node's
// edges out of strict (Label, To) order, degrees not summing to the edge
// count — and otherwise return what AddEdgeL builds from them, its
// adjacency sorted into frozen order here: Freeze itself ends in the
// constructor Decode uses, so it would be no independent reference.
func FuzzGraphSection(f *testing.F) {
	fx := fixture(f)
	syms := fx.Graph.Symbols() // cust 1, restaurant 2, bar 3, friend 4, visit 5
	for _, seed := range [][3][]byte{
		{{1, 1, 2}, {2, 2}, {4, 1, 5, 2, 4, 0, 4, 2}}, // a graph
		{{1, 1, 2}, {2, 1}, {4, 1, 5, 2, 4, 0}},       // another graph
		{{1, 1, 2}, {2, 1}, {4, 1, 4, 1, 4, 0}},       // duplicate edge
		{{1, 1, 2}, {2, 1}, {5, 2, 4, 1, 4, 0}},       // descending run
		{{1, 0, 2}, {2, 1}, {4, 1, 5, 2, 4, 0}},       // label 0
		{{1, 1, 6}, {2, 1}, {4, 1, 6, 2, 4, 0}},       // labels past the table
		{{1, 1, 2}, {2, 1}, {4, 1, 5, 3, 4, 0}},       // target past the nodes
		{{1, 1, 2}, {2, 2}, {4, 1, 5, 2, 4, 0}},       // degrees sum past the edges
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	inTable := func(l byte) bool { return l != 0 && int(l) <= syms.Len() }
	f.Fuzz(func(t *testing.T, nodes, degs, edges []byte) {
		n, numE := len(nodes), len(edges)/2
		deg := func(v int) int {
			if v < len(degs) {
				return int(degs[v])
			}
			return 0
		}
		le := binary.LittleEndian
		payload := le.AppendUint32(le.AppendUint32(nil, uint32(n)), uint32(numE))
		for _, l := range nodes {
			payload = le.AppendUint32(payload, uint32(l))
		}
		for v := range n {
			payload = le.AppendUint32(payload, uint32(deg(v)))
		}
		for i := range numE {
			payload = le.AppendUint32(le.AppendUint32(payload, uint32(edges[2*i])), uint32(edges[2*i+1]))
		}
		d, err := Decode(seal(1, []section{{secSymbols, encodeSymbols(syms)}, {secGraph, payload},
			{secPred, encodePred(fx.Pred)}, {secRules, encodeRules(nil)}}))

		// What the arrays mean, checked and built edge by edge.
		want := graph.New(syms)
		valid := true
		for _, l := range nodes {
			valid = valid && inTable(l)
			want.AddNodeL(graph.Label(l))
		}
		i := 0
		for v := range n {
			for k := 0; k < deg(v) && valid; k, i = k+1, i+1 {
				if valid = i < numE && inTable(edges[2*i]) && int(edges[2*i+1]) < n; !valid {
					break
				}
				l, to := edges[2*i], edges[2*i+1]
				valid = k == 0 || l > edges[2*i-2] || l == edges[2*i-2] && to > edges[2*i-1]
				want.AddEdgeL(graph.NodeID(v), graph.NodeID(to), graph.Label(l))
			}
		}
		if valid = valid && i == numE; !valid {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("malformed arrays decoded: %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("a graph's arrays failed to decode: %v", err)
		}
		got := d.Graph
		if got.NumNodes() != n || got.NumEdges() != numE {
			t.Fatalf("decoded %v from %d nodes and %d edges", got, n, numE)
		}
		for l := graph.NoLabel; int(l) <= syms.Len()+1; l++ {
			var nodesL []graph.NodeID
			for v := range n {
				if want.Label(graph.NodeID(v)) == l {
					nodesL = append(nodesL, graph.NodeID(v))
				}
			}
			if !slices.Equal(got.NodesWithLabel(l), nodesL) {
				t.Fatalf("NodesWithLabel(%d) = %v, want %v", l, got.NodesWithLabel(l), nodesL)
			}
		}
		byLabelTo := func(a, b graph.Edge) int { return cmp.Or(cmp.Compare(a.Label, b.Label), cmp.Compare(a.To, b.To)) }
		for v := graph.NodeID(0); int(v) < n; v++ {
			out := slices.SortedFunc(slices.Values(want.Out(v)), byLabelTo)
			in := slices.SortedFunc(slices.Values(want.In(v)), byLabelTo)
			if got.Label(v) != want.Label(v) || !slices.Equal(got.Out(v), out) || !slices.Equal(got.In(v), in) {
				t.Fatalf("node %d: label %d, out %v, in %v; want %d, %v, %v",
					v, got.Label(v), got.Out(v), got.In(v), want.Label(v), out, in)
			}
		}
	})
}

// BenchmarkSnapshotLoad measures the restart-critical path: decoding a
// Pokec-scale snapshot file back into a frozen graph + rules.
func BenchmarkSnapshotLoad(b *testing.B) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(2000, 1))
	pred := gen.PokecPredicates(syms)[0]
	rules := gen.Rules(g, pred, gen.RuleGenParams{Count: 8, VP: 3, EP: 3, Seed: 1})
	g.Freeze()
	enc := Encode(&Data{Generation: 1, Graph: g, Pred: pred, Rules: rules})
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// overlayGraph is a frozen Pokec-15 000 graph under a 200-op delta overlay:
// the shape compaction folds, and, cloned, the shape a rebuild freezes.
func overlayGraph(b *testing.B) *graph.Graph {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(15000, 1))
	g.Freeze()
	user, follow := syms.Lookup("user"), syms.Lookup("follow")
	var ops []graph.DeltaOp
	for i := range 100 {
		v := graph.NodeID(g.NumNodes() + i)
		ops = append(ops, graph.DeltaOp{Kind: graph.DeltaAddNode, Label: user},
			graph.DeltaOp{Kind: graph.DeltaAddEdge, From: v, To: graph.NodeID(i * 97), Label: follow})
	}
	over, err := g.ApplyDelta(ops)
	if err != nil {
		b.Fatal(err)
	}
	return over
}

// BenchmarkFreeze measures freezing a graph built edge by edge: an
// unfrozen clone of the overlay graph per iteration, cloned off the clock.
func BenchmarkFreeze(b *testing.B) {
	g := overlayGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := g.Clone()
		b.StartTimer()
		c.Freeze()
	}
}

// BenchmarkCompactCopy measures folding the overlay into a fresh freeze,
// the work a delta batch that crosses the compaction threshold pays.
func BenchmarkCompactCopy(b *testing.B) {
	g := overlayGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := g.CompactCopy(); c.NumEdges() != g.NumEdges() {
			b.Fatalf("compacted %d edges, want %d", c.NumEdges(), g.NumEdges())
		}
	}
}
