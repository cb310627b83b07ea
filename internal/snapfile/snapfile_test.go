package snapfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
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

// Every single-bit flip is caught by the magic, the version or the CRC
// trailer.
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

// Malformed files are each a *FormatError naming what failed, and the
// section when one failed to parse. The damaged bodies are re-sealed with
// a valid CRC, so the section parsers, not the checksum, must catch them.
func TestDecodeRejects(t *testing.T) {
	enc := Encode(fixture(t))
	body := enc[:len(enc)-trailerLen]
	le := binary.LittleEndian
	reseal := func(b []byte) []byte {
		crc := crc32.ChecksumIEEE(b)
		return le.AppendUint32(le.AppendUint32(b, crc), ^crc)
	}
	edit := func(off int, v uint32) []byte {
		b := bytes.Clone(body)
		le.PutUint32(b[off:], v)
		return reseal(b)
	}
	// The fixture's symbol table: cust, restaurant, bar, friend, visit.
	grph := headerLen + 4 + 5*4 + len("custrestaurantbarfriendvisit")
	rule := grph + len(fixture(t).Graph.AppendCSR(nil)) + 12
	for _, tc := range []struct {
		name, section, want string
		data                []byte
	}{
		{"version 1 header", "", "unsupported version 1 (want 2)", edit(4, 1)},
		{"symbol count past the file", secSymbols, "name", edit(headerLen, 1000)},
		{"node count past the file", secGraph, "needs", edit(grph, 1<<20)},
		{"node 0's edges descending", secGraph, "not strictly ascending", edit(grph+8+8*8+8, 3)}, // (friend, 1), (bar, 6)
		{"predicate label 0", secPred, "outside symbol table", edit(rule-12, 0)},
		{"rules length past the file", secRules, "overrun", edit(rule, 1<<20)},
		{"trailing bytes", "", "1 trailing bytes", reseal(append(bytes.Clone(body), 0))},
	} {
		_, err := Decode(tc.data)
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Section != tc.section || !strings.Contains(fe.Msg, tc.want) {
			t.Errorf("%s: error %v, want a *FormatError in section %q saying %q", tc.name, err, tc.section, tc.want)
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

// snapshotFixture is a Pokec-2 000 serving state with eight rules.
func snapshotFixture() *Data {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(2000, 1))
	pred := gen.PokecPredicates(syms)[0]
	rules := gen.Rules(g, pred, gen.RuleGenParams{Count: 8, VP: 3, EP: 3, Seed: 1})
	g.Freeze()
	return &Data{Generation: 1, Graph: g, Pred: pred, Rules: rules}
}

// BenchmarkSnapshotLoad measures the restart-critical path: decoding a
// Pokec-scale snapshot file back into a frozen graph + rules.
func BenchmarkSnapshotLoad(b *testing.B) {
	enc := Encode(snapshotFixture())
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotWrite measures encoding the same state, the part of a
// checkpoint before its fsync.
func BenchmarkSnapshotWrite(b *testing.B) {
	d := snapshotFixture()
	b.SetBytes(int64(len(Encode(d))))
	b.ReportAllocs()
	for b.Loop() {
		Encode(d)
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
