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
// centers and both ID mappings.
func sameFragment(t *testing.T, want, got *Fragment) {
	t.Helper()
	if got.G.NumNodes() != want.G.NumNodes() || got.G.NumEdges() != want.G.NumEdges() {
		t.Fatalf("decoded graph %d nodes/%d edges, want %d/%d",
			got.G.NumNodes(), got.G.NumEdges(), want.G.NumNodes(), want.G.NumEdges())
	}
	for v := graph.NodeID(0); int(v) < want.G.NumNodes(); v++ {
		if got.G.Label(v) != want.G.Label(v) || !slices.Equal(got.G.Out(v), want.G.Out(v)) || got.Global(v) != want.Global(v) {
			t.Fatalf("node %d: label %d, out %v, global %d; want %d, %v, %d",
				v, got.G.Label(v), got.G.Out(v), got.Global(v), want.G.Label(v), want.G.Out(v), want.Global(v))
		}
	}
	if !slices.Equal(got.Centers, want.Centers) {
		t.Fatalf("centers %v, want %v", got.Centers, want.Centers)
	}
	for lv, gv := range want.ToGlobal {
		if back, ok := got.Local(gv); !ok || back != graph.NodeID(lv) {
			t.Fatalf("Local(%d) = (%d, %v), want (%d, true)", gv, back, ok, lv)
		}
	}
	_, gotOK := got.Local(graph.NodeID(got.numGlobal - 1))
	if _, wantOK := want.Local(graph.NodeID(want.numGlobal - 1)); gotOK != wantOK {
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

// TestFragmentCodecGolden pins a fixed fragment's encoding, so any format
// change — field order, integer width, a new field — fails loudly and
// forces a version bump instead of silent drift.
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

	const golden = "475046520203000000" + // magic, version 2, numGlobal 3
		"030000000300000001000000010000000200000002000000010000000000000003000000" + // 3 nodes, 3 edges, labels, degrees
		"010000000400000002000000030000000000000002000000000000000100000000000000" + // edges; 2 centers 0, 1
		"0100000002000000" // toGlobal 0, 1, 2
	if got := hex.EncodeToString(enc); got != golden {
		t.Fatalf("fragment encoding drifted:\n got %s\nwant %s", got, golden)
	}
	dec, _, err := DecodeFragment(enc, syms)
	if err != nil {
		t.Fatal(err)
	}
	sameFragment(t, f, dec)
}

// goldenShaped lays out a fragment shaped like the golden one — three
// nodes of degrees 2, 1 and 0, centers 0 and 1, toGlobal 0, 1, 2 — with the
// given node labels and (label, to) edges, for the canonical-form checks.
func goldenShaped(labels [3]uint32, edges [6]uint32) []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte("GPFR\x02"), 3)
	for _, v := range slices.Concat([]uint32{3, 3}, labels[:], []uint32{2, 1, 0}, edges[:], []uint32{2, 0, 1, 0, 1, 2}) {
		b = le.AppendUint32(b, v)
	}
	return b
}

func TestFragmentCodecErrors(t *testing.T) {
	_, frags := codecFixture(t, 100, 2)
	enc := frags[0].AppendBinary(nil)
	syms := frags[0].G.Symbols()
	le := binary.LittleEndian
	past := uint32(syms.Len() + 1)

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE\x02\x00")},
		{"bad version", append([]byte("GPFR"), 99)},
		{"truncated header", enc[:6]},
		{"node count beyond the input", le.AppendUint32(le.AppendUint32([]byte("GPFR\x02\xff\xff\xff\x7f"), 1<<30), 1<<30)},
		{"original graph past int32", le.AppendUint32([]byte("GPFR\x02"), 1<<31)},
		{"truncated mid-stream", enc[:len(enc)/2]},
		{"truncated tail", enc[:len(enc)-1]},
		// Non-canonical graphs: FromCSR's checks are the fragment's too.
		{"duplicate edge", goldenShaped([3]uint32{1, 1, 2}, [6]uint32{3, 1, 3, 1, 3, 0})},
		{"descending run", goldenShaped([3]uint32{1, 1, 2}, [6]uint32{4, 2, 3, 1, 3, 0})},
		{"node label past the table", goldenShaped([3]uint32{1, 1, past}, [6]uint32{3, 1, 4, 2, 3, 0})},
		{"NoLabel edge", goldenShaped([3]uint32{1, 1, 2}, [6]uint32{0, 1, 4, 2, 3, 0})},
	}
	if _, _, err := DecodeFragment(goldenShaped([3]uint32{1, 1, 2}, [6]uint32{3, 1, 4, 2, 3, 0}), syms); err != nil {
		t.Fatalf("the canonical shape itself fails: %v", err)
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
	f.Add([]byte("GPFR\x02"))
	past := uint32(syms.Len() + 1)
	f.Add(goldenShaped([3]uint32{1, 1, 2}, [6]uint32{3, 1, 3, 1, 3, 0}))    // edge 0→1 twice
	f.Add(goldenShaped([3]uint32{1, 1, past}, [6]uint32{3, 1, 4, 2, 3, 0})) // node label past the table
	f.Add(goldenShaped([3]uint32{1, 1, 2}, [6]uint32{0, 1, 4, 2, 3, 0}))    // edge label NoLabel
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
