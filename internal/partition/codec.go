package partition

import (
	"encoding/binary"
	"fmt"

	"gpar/internal/graph"
)

// This file is the fragment wire format: a deterministic binary encoding of
// a Fragment, so a distributed DMine coordinator can ship each worker its
// share of the graph. The format is versioned and self-delimiting
// (length-prefixed lists), and the encoding is canonical: edges are written
// in the frozen CSR (Label, To) order, so encode(decode(b)) == b and two
// fragments with equal frozen graphs encode to equal bytes. Node labels
// travel as raw label IDs; the symbol table itself is shipped separately
// (once per job, not per fragment) and decoded fragments bind to it.
//
// Layout (uv = unsigned varint):
//
//	magic   "GPFR"                      4 bytes
//	version 0x01                        1 byte
//	numGlobal  uv                       original graph's node count
//	numNodes   uv                       fragment node count
//	labels     numNodes × uv            node labels, local-ID order
//	degrees    numNodes × uv            out-degree per node
//	edges      Σdegrees × (uv, uv)      (label, to) per edge, CSR order
//	numCenters uv
//	centers    numCenters × uv          owned centers, local IDs
//	toGlobal   numNodes × uv            local → original node IDs
const (
	fragMagic   = "GPFR"
	fragVersion = 1
)

// codecError is the typed error every fragment decode failure returns.
type codecError struct{ msg string }

func (e *codecError) Error() string { return "partition: " + e.msg }

func codecErrorf(format string, args ...any) error {
	return &codecError{msg: fmt.Sprintf(format, args...)}
}

// AppendBinary appends the fragment's canonical binary encoding to dst and
// returns the extended slice. It freezes the fragment graph if the caller
// has not already (the CSR edge order is the canonical one; every fragment
// a Context hands out is frozen anyway).
func (f *Fragment) AppendBinary(dst []byte) []byte {
	f.G.Freeze()
	dst = append(dst, fragMagic...)
	dst = append(dst, fragVersion)
	dst = binary.AppendUvarint(dst, uint64(f.numGlobal))
	n := f.G.NumNodes()
	dst = binary.AppendUvarint(dst, uint64(n))
	for v := 0; v < n; v++ {
		dst = binary.AppendUvarint(dst, uint64(f.G.Label(graph.NodeID(v))))
	}
	for v := 0; v < n; v++ {
		dst = binary.AppendUvarint(dst, uint64(len(f.G.Out(graph.NodeID(v)))))
	}
	for v := 0; v < n; v++ {
		for _, e := range f.G.Out(graph.NodeID(v)) {
			dst = binary.AppendUvarint(dst, uint64(e.Label))
			dst = binary.AppendUvarint(dst, uint64(e.To))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Centers)))
	for _, c := range f.Centers {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	for v := 0; v < n; v++ {
		dst = binary.AppendUvarint(dst, uint64(f.Global(graph.NodeID(v))))
	}
	return dst
}

// DecodeFragment decodes one fragment from data, binding its graph to syms
// (the job's symbol table; labels in the encoding are IDs into it). Only
// the canonical encoding decodes: minimal varints, labels inside syms, and
// each node's edges strictly ascending in frozen CSR (label, to) order, so
// re-encoding the frozen fragment reproduces data byte for byte. The
// remainder of data after the fragment is returned.
func DecodeFragment(data []byte, syms *graph.Symbols) (*Fragment, []byte, error) {
	d := fragDecoder{buf: data}
	if len(d.buf) < len(fragMagic)+1 || string(d.buf[:len(fragMagic)]) != fragMagic {
		return nil, nil, codecErrorf("fragment encoding lacks %q magic", fragMagic)
	}
	d.buf = d.buf[len(fragMagic):]
	if v := d.buf[0]; v != fragVersion {
		return nil, nil, codecErrorf("fragment encoding version %d, want %d", v, fragVersion)
	}
	d.buf = d.buf[1:]

	numGlobal := d.intf("numGlobal")
	n := d.intf("numNodes")
	if d.err != nil {
		return nil, nil, d.err
	}
	if n > numGlobal {
		return nil, nil, codecErrorf("fragment has %d nodes but the original graph only %d", n, numGlobal)
	}
	if n > len(d.buf) { // every node takes at least a label byte; bounds the allocations below
		return nil, nil, codecErrorf("fragment claims %d nodes in %d bytes", n, len(d.buf))
	}
	labels := make([]graph.Label, n)
	for v := 0; v < n && d.err == nil; v++ {
		labels[v] = graph.Label(d.intf("node label"))
	}
	// A degree wrapping int32 makes the offsets run backwards, which
	// FromCSR rejects.
	outOff := make([]int32, n+1)
	for v := 0; v < n && d.err == nil; v++ {
		outOff[v+1] = outOff[v] + int32(d.intf("out-degree"))
	}
	var out []graph.Edge
	for len(out) < int(outOff[n]) && d.err == nil {
		out = append(out, graph.Edge{Label: graph.Label(d.intf("edge label")), To: graph.NodeID(d.intf("edge target"))})
	}
	nc := d.intf("numCenters")
	if d.err == nil && nc > n {
		return nil, nil, codecErrorf("fragment claims %d centers over %d nodes", nc, n)
	}
	centers := make([]graph.NodeID, 0, nc)
	for i := 0; i < nc && d.err == nil; i++ {
		c := d.intf("center")
		if c >= n {
			return nil, nil, codecErrorf("center %d out of range (fragment has %d nodes)", c, n)
		}
		centers = append(centers, graph.NodeID(c))
	}
	toGlobal := make([]graph.NodeID, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		gv := d.intf("toGlobal entry")
		if gv >= numGlobal {
			return nil, nil, codecErrorf("global node %d out of range (graph has %d nodes)", gv, numGlobal)
		}
		toGlobal = append(toGlobal, graph.NodeID(gv))
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	// FromCSR checks labels against syms, targets, and the strict order.
	g, err := graph.FromCSR(syms, labels, outOff, out)
	if err != nil {
		return nil, nil, codecErrorf("%v", err)
	}
	f := &Fragment{G: g, Centers: centers, ToGlobal: toGlobal}
	var m map[graph.NodeID]graph.NodeID
	if len(toGlobal)*16 < numGlobal { // mirror setToLocal's dense/sparse split
		m = make(map[graph.NodeID]graph.NodeID, len(toGlobal))
		for lv, gv := range toGlobal {
			m[gv] = graph.NodeID(lv)
		}
	}
	f.setToLocal(numGlobal, toGlobal, m)
	return f, d.buf, nil
}

// fragDecoder reads uvarints with sticky error handling, so the decode
// above reads linearly without per-field error plumbing.
type fragDecoder struct {
	buf []byte
	err error
}

// intf decodes one minimal uvarint as a non-negative int, recording a
// descriptive sticky error on truncation, padding or overflow.
func (d *fragDecoder) intf(what string) int {
	if d.err != nil {
		return 0
	}
	v, k := binary.Uvarint(d.buf)
	if k <= 0 {
		d.err = codecErrorf("truncated fragment encoding reading %s", what)
		return 0
	}
	if k > 1 && d.buf[k-1] == 0 {
		d.err = codecErrorf("non-minimal varint reading %s", what)
		return 0
	}
	if v > uint64(int32(^uint32(0)>>1)) { // node IDs and labels are int32
		d.err = codecErrorf("%s %d overflows int32", what, v)
		return 0
	}
	d.buf = d.buf[k:]
	return int(v)
}
