package partition

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
)

// codecFixture partitions a seeded Pokec-like graph into n fragments, the
// exact shape the distributed coordinator ships.
func codecFixture(t testing.TB, users int, n int) (*graph.Graph, []*Fragment) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(users, 11))
	g.Freeze()
	pred := gen.PokecPredicates(syms)[0]
	cands := g.NodesWithLabel(pred.XLabel)
	frags := Partition(g, cands, n, 2)
	for _, f := range frags {
		f.G.Freeze()
	}
	return g, frags
}

// sameFragment asserts structural equality of two fragments: graph shape,
// centers, both ID mappings, and the canonical re-encoding.
func sameFragment(t *testing.T, want, got *Fragment) {
	t.Helper()
	if got.G.NumNodes() != want.G.NumNodes() || got.G.NumEdges() != want.G.NumEdges() {
		t.Fatalf("decoded graph %d nodes/%d edges, want %d/%d",
			got.G.NumNodes(), got.G.NumEdges(), want.G.NumNodes(), want.G.NumEdges())
	}
	for v := 0; v < want.G.NumNodes(); v++ {
		lv := graph.NodeID(v)
		if got.G.Label(lv) != want.G.Label(lv) {
			t.Fatalf("node %d label %d, want %d", v, got.G.Label(lv), want.G.Label(lv))
		}
		wantOut, gotOut := want.G.Out(lv), got.G.Out(lv)
		if len(wantOut) != len(gotOut) {
			t.Fatalf("node %d out-degree %d, want %d", v, len(gotOut), len(wantOut))
		}
		for i := range wantOut {
			if wantOut[i] != gotOut[i] {
				t.Fatalf("node %d edge %d = %+v, want %+v", v, i, gotOut[i], wantOut[i])
			}
		}
	}
	if len(got.Centers) != len(want.Centers) {
		t.Fatalf("centers %d, want %d", len(got.Centers), len(want.Centers))
	}
	for i := range want.Centers {
		if got.Centers[i] != want.Centers[i] {
			t.Fatalf("center %d = %d, want %d", i, got.Centers[i], want.Centers[i])
		}
	}
	for i := range want.ToGlobal {
		if got.ToGlobal[i] != want.ToGlobal[i] {
			t.Fatalf("toGlobal %d = %d, want %d", i, got.ToGlobal[i], want.ToGlobal[i])
		}
	}
	for lv, gv := range want.ToGlobal {
		back, ok := got.Local(gv)
		if !ok || back != graph.NodeID(lv) {
			t.Fatalf("Local(%d) = (%d, %v), want (%d, true)", gv, back, ok, lv)
		}
	}
	if _, ok := got.Local(graph.NodeID(got.numGlobal - 1)); ok != func() bool {
		_, w := want.Local(graph.NodeID(want.numGlobal - 1))
		return w
	}() {
		t.Fatal("Local() disagrees on an absent node")
	}
}

func TestFragmentCodecRoundTrip(t *testing.T) {
	g, frags := codecFixture(t, 300, 3)
	syms := g.Symbols()
	for i, f := range frags {
		enc := f.AppendBinary(nil)
		dec, rest, err := DecodeFragment(enc, syms)
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("fragment %d: %d trailing bytes", i, len(rest))
		}
		sameFragment(t, f, dec)
		// Canonical: the decoded fragment re-encodes byte-identically.
		if re := dec.AppendBinary(nil); !bytes.Equal(re, enc) {
			t.Fatalf("fragment %d: re-encoding differs (%d vs %d bytes)", i, len(re), len(enc))
		}
	}
}

// TestFragmentCodecStream checks the self-delimiting property: multiple
// fragments concatenate into one buffer and decode back in order.
func TestFragmentCodecStream(t *testing.T) {
	g, frags := codecFixture(t, 200, 4)
	var buf []byte
	for _, f := range frags {
		buf = f.AppendBinary(buf)
	}
	rest := buf
	for i, f := range frags {
		var dec *Fragment
		var err error
		dec, rest, err = DecodeFragment(rest, g.Symbols())
		if err != nil {
			t.Fatalf("fragment %d: %v", i, err)
		}
		sameFragment(t, f, dec)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after all fragments", len(rest))
	}
}

// TestFragmentCodecGolden pins the first bytes of a fixed fragment's
// encoding, so any format change — field order, varint width, a new field —
// fails loudly and forces a version bump instead of silent drift.
func TestFragmentCodecGolden(t *testing.T) {
	syms := graph.NewSymbols()
	g := graph.New(syms)
	a := g.AddNode("person")
	b := g.AddNode("person")
	c := g.AddNode("page")
	g.AddEdge(a, b, "follows")
	g.AddEdge(b, a, "follows")
	g.AddEdge(a, c, "likes")
	g.Freeze()
	f := Whole(g, []graph.NodeID{a, b})
	enc := f.AppendBinary(nil)

	const golden = "47504652010303010102020100030104020300020001000102"
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("fragment encoding drifted:\n got %s\nwant %s", got, golden)
	}
	dec, _, err := DecodeFragment(enc, syms)
	if err != nil {
		t.Fatal(err)
	}
	sameFragment(t, f, dec)
}

func TestFragmentCodecErrors(t *testing.T) {
	_, frags := codecFixture(t, 100, 2)
	enc := frags[0].AppendBinary(nil)
	syms := frags[0].G.Symbols()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE\x01\x00")},
		{"bad version", append([]byte("GPFR"), 99)},
		{"truncated header", enc[:6]},
		{"node count beyond the input", binary.AppendUvarint(binary.AppendUvarint([]byte("GPFR\x01"), 1<<40), 1<<40)},
		{"truncated mid-stream", enc[:len(enc)/2]},
		{"truncated tail", enc[:len(enc)-1]},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFragment(tc.data, syms); err == nil {
			t.Errorf("%s: decode succeeded, want error", tc.name)
		} else if _, ok := err.(*codecError); !ok {
			t.Errorf("%s: error type %T, want *codecError", tc.name, err)
		}
	}
}

// FuzzFragmentDecode throws arbitrary bytes at the decoder: it must either
// return the codec's typed error or produce a fragment whose labels lie in
// the symbol table and that re-encodes to exactly the bytes it was read
// from — and never panic or hang. Valid encodings are seeded so the fuzzer
// starts from the interesting region of the input space, with three
// non-canonical ones the snapshot decoder also refuses.
func FuzzFragmentDecode(f *testing.F) {
	_, frags := codecFixture(f, 120, 2)
	syms := frags[0].G.Symbols()
	for _, fr := range frags {
		f.Add(fr.AppendBinary(nil))
	}
	f.Add([]byte("GPFR\x01"))
	// The golden layout: 3 of 3 nodes, then labels, degrees and (label, to)
	// edges, then centers 0, 1 and toGlobal 0, 1, 2.
	head, tail := []byte("GPFR\x01\x03\x03"), []byte{2, 0, 1, 0, 1, 2}
	past := binary.AppendUvarint(nil, uint64(syms.Len()+1))
	for _, body := range [][]byte{
		{1, 1, 2, 3, 1, 0, 3, 1, 3, 1, 4, 2, 3, 0},    // edge 0→1 twice
		append(past, 1, 2, 2, 1, 0, 3, 1, 4, 2, 3, 0), // node label past the table
		{1, 1, 2, 2, 1, 0, 0, 1, 4, 2, 3, 0},          // edge label NoLabel
	} {
		f.Add(slices.Concat(head, body, tail))
	}
	inTable := func(l graph.Label) bool { return l != graph.NoLabel && int(l) <= syms.Len() }
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, rest, err := DecodeFragment(data, syms)
		if err != nil {
			if _, ok := err.(*codecError); !ok {
				t.Fatalf("error type %T, want *codecError: %v", err, err)
			}
			return
		}
		for v := graph.NodeID(0); int(v) < dec.G.NumNodes(); v++ {
			if !inTable(dec.G.Label(v)) {
				t.Fatalf("node %d decoded with label %d outside the table", v, dec.G.Label(v))
			}
			for _, e := range dec.G.Out(v) {
				if !inTable(e.Label) {
					t.Fatalf("edge %d→%d decoded with label %d outside the table", v, e.To, e.Label)
				}
			}
		}
		if re := dec.AppendBinary(nil); !bytes.Equal(re, data[:len(data)-len(rest)]) {
			t.Fatalf("re-encoding differs from the input:\n got %x\nwant %x", re, data[:len(data)-len(rest)])
		}
	})
}
