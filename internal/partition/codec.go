package partition

import (
	"encoding/binary"
	"fmt"
	"math"

	"gpar/internal/graph"
)

// This file is the fragment wire format: a deterministic binary encoding of
// a Fragment, so a distributed DMine coordinator can ship each worker its
// share of the graph. The format is versioned and self-delimiting, and the
// encoding is canonical: the graph travels in graph.AppendCSR's encoding,
// whose edges are in frozen (Label, To) order, so encode(decode(b)) == b
// and two fragments with equal frozen graphs encode to equal bytes. Node
// labels travel as raw label IDs; the symbol table itself is shipped
// separately (once per job, not per fragment) and decoded fragments bind
// to it.
//
// Layout (u32 = little-endian uint32):
//
//	magic   "GPFR"                      4 bytes
//	version 0x02                        1 byte
//	numGlobal  u32                      original graph's node count
//	graph      graph.AppendCSR          node and edge counts, labels,
//	                                    out-degrees, (label, to) edges
//	numCenters u32
//	centers    numCenters × u32         owned centers, local IDs
//	toGlobal   numNodes × u32           local → original node IDs
const (
	fragMagic   = "GPFR"
	fragVersion = 2
)

// codecError is the typed error every fragment decode failure returns.
type codecError struct{ msg string }

func (e *codecError) Error() string { return "partition: " + e.msg }

func codecErrorf(format string, args ...any) error {
	return &codecError{msg: fmt.Sprintf(format, args...)}
}

// AppendBinary appends the fragment's canonical binary encoding to dst and
// returns the extended slice. Encoding freezes the fragment graph if the
// caller has not already (every fragment a Context hands out is frozen).
func (f *Fragment) AppendBinary(dst []byte) []byte {
	le := binary.LittleEndian
	dst = append(dst, fragMagic...)
	dst = append(dst, fragVersion)
	dst = le.AppendUint32(dst, uint32(f.numGlobal))
	dst = f.G.AppendCSR(dst)
	dst = le.AppendUint32(dst, uint32(len(f.Centers)))
	for _, c := range f.Centers {
		dst = le.AppendUint32(dst, uint32(c))
	}
	for v := range f.G.NumNodes() {
		dst = le.AppendUint32(dst, uint32(f.Global(graph.NodeID(v))))
	}
	return dst
}

// DecodeFragment decodes one fragment from data, binding its graph to syms
// (the job's symbol table; labels in the encoding are IDs into it). Only
// the canonical encoding decodes: labels inside syms, each node's edges
// strictly ascending in frozen (Label, To) order, centers and global IDs
// in range, so re-encoding the fragment reproduces data byte for byte. The
// remainder of data after the fragment is returned.
func DecodeFragment(data []byte, syms *graph.Symbols) (*Fragment, []byte, error) {
	const head = len(fragMagic) + 1 + 4
	if len(data) < len(fragMagic)+1 || string(data[:len(fragMagic)]) != fragMagic {
		return nil, nil, codecErrorf("fragment encoding lacks %q magic", fragMagic)
	}
	if v := data[len(fragMagic)]; v != fragVersion {
		return nil, nil, codecErrorf("fragment encoding version %d, want %d", v, fragVersion)
	}
	if len(data) < head {
		return nil, nil, codecErrorf("fragment header truncated at %d bytes", len(data))
	}
	le := binary.LittleEndian
	numGlobal := int(le.Uint32(data[len(fragMagic)+1:]))
	if numGlobal > math.MaxInt32 { // node IDs are int32
		return nil, nil, codecErrorf("original graph of %d nodes overflows int32", numGlobal)
	}
	g, b, err := graph.DecodeCSR(data[head:], syms)
	if err != nil {
		return nil, nil, codecErrorf("%v", err)
	}
	n := g.NumNodes()
	if n > numGlobal {
		return nil, nil, codecErrorf("fragment has %d nodes but the original graph only %d", n, numGlobal)
	}
	if len(b) < 4 {
		return nil, nil, codecErrorf("fragment truncated before its center count")
	}
	nc := int(le.Uint32(b))
	if b = b[4:]; nc > n || len(b) < 4*(nc+n) {
		return nil, nil, codecErrorf("fragment claims %d centers and %d global IDs in %d bytes", nc, n, len(b))
	}
	centers := make([]graph.NodeID, nc)
	for i := range centers {
		if c := le.Uint32(b[4*i:]); c < uint32(n) {
			centers[i] = graph.NodeID(c)
		} else {
			return nil, nil, codecErrorf("center %d out of range (fragment has %d nodes)", c, n)
		}
	}
	b = b[4*nc:]
	toGlobal := make([]graph.NodeID, n)
	for i := range toGlobal {
		if gv := le.Uint32(b[4*i:]); gv < uint32(numGlobal) {
			toGlobal[i] = graph.NodeID(gv)
		} else {
			return nil, nil, codecErrorf("global node %d out of range (graph has %d nodes)", gv, numGlobal)
		}
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
	return f, b[4*n:], nil
}
