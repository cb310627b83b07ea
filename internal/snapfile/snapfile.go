// Package snapfile is the on-disk snapshot format for a gpard serving
// state: one versioned file holding the symbol table, the frozen graph's
// CSR arenas, the predicate and the mined rule set Σ, each in its own
// checksummed section. It is gpard's checkpoint: a daemon restarts by
// reading one file instead of re-ingesting and re-freezing.
//
// Layout (all integers little-endian):
//
//	header   32 bytes  magic "GPSN", version u32, generation u64,
//	                   section count u32, reserved
//	table    n × 64    per section: type [4]byte, reserved u32,
//	                   offset u64, length u64, SHA-256 [32]byte, pad
//	sections           each starting at a 64-byte-aligned offset,
//	                   zero-padded between
//	trailer  8 bytes   CRC-32 (IEEE) of everything before it, stored
//	                   as u32 crc, u32 ^crc
//
// Sections (in file order):
//
//	SYMB  symbol table: count u32, then per name len u32 + bytes, in
//	      label order — re-interning in order reproduces identical IDs
//	GRPH  graph arenas: numNodes u32, numEdges u32, labels n×u32,
//	      out-degrees n×u32, edges numE×(label u32, to u32) in the
//	      frozen CSR (Label, To) order
//	PRED  predicate: xLabel, edgeLabel, yLabel as u32 label IDs
//	RULE  the rule set Σ in the core.WriteRules text format
//
// The GRPH section is fixed-width and 64-byte aligned so the arenas can
// later be mmapped in place; today Decode parses the labels, degrees and
// out-arena into slices and hands them to graph.FromCSR, which validates
// them and derives the in-arena and label indexes in one build.
// The encoding is canonical: edges are written in the frozen (Label, To)
// adjacency order — which delta overlays also maintain — so encoding a
// graph, decoding it, and encoding again is byte-identical, including
// across a delta overlay vs its compacted equivalent.
//
// Write lands the file crash-safely: temp file in the same directory,
// content fsync, atomic rename, directory fsync — through the
// diskfault.FS abstraction so the fault-injection harness can script
// every failure mode in between. Read verifies magic, version, the
// whole-file CRC, and every section digest before decoding, and returns
// *FormatError for any violation, so callers can quarantine rather than
// serve a partial state.
package snapfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"gpar/internal/core"
	"gpar/internal/diskfault"
	"gpar/internal/graph"
)

const (
	magic      = "GPSN"
	version    = 1
	headerLen  = 32
	tableEntry = 64
	align      = 64
	trailerLen = 8

	secSymbols = "SYMB"
	secGraph   = "GRPH"
	secPred    = "PRED"
	secRules   = "RULE"
)

// maxSections bounds the section table a reader will accept; the format
// defines 4, and a few spare keep the door open for additive versions.
const maxSections = 16

// FormatError describes why a snapshot file was rejected. Every decode
// failure is one of these, so recovery can distinguish corruption (to
// quarantine) from I/O errors (to surface).
type FormatError struct {
	Path    string // file path, "" when decoding from memory
	Section string // section type, "" for envelope-level failures
	Msg     string
}

// Error implements error.
func (e *FormatError) Error() string {
	where := "snapfile"
	if e.Path != "" {
		where += " " + e.Path
	}
	if e.Section != "" {
		where += " section " + e.Section
	}
	return where + ": " + e.Msg
}

func formatErrf(section, format string, args ...any) error {
	return &FormatError{Section: section, Msg: fmt.Sprintf(format, args...)}
}

// Data is the logical content of a snapshot file.
type Data struct {
	// Generation is the serving generation the snapshot captured.
	Generation uint64
	// Graph is the data graph; Decode returns it frozen with a fresh
	// symbol table.
	Graph *graph.Graph
	// Pred is the association predicate q(x, y) the serving state is for.
	Pred core.Predicate
	// Rules is the resident rule set Σ (may be empty).
	Rules []*core.Rule
}

// Encode renders d into the canonical snapshot file bytes.
func Encode(d *Data) []byte {
	d.Graph.Freeze()
	return seal(d.Generation, []section{
		{secSymbols, encodeSymbols(d.Graph.Symbols())},
		{secGraph, encodeGraph(d.Graph)},
		{secPred, encodePred(d.Pred)},
		{secRules, encodeRules(d.Rules)},
	})
}

// section is one typed payload of a snapshot file.
type section struct {
	typ     string
	payload []byte
}

// seal wraps the sections in the envelope: the header, a table entry per
// section with its offset, length and SHA-256, the payloads each 64-byte
// aligned, and the CRC trailer.
func seal(generation uint64, sections []section) []byte {
	le := binary.LittleEndian
	buf := le.AppendUint32([]byte(magic), version)
	buf = le.AppendUint64(buf, generation)
	buf = le.AppendUint32(buf, uint32(len(sections)))
	buf = append(buf, make([]byte, headerLen-len(buf))...) // reserved
	off := uint64(headerLen + len(sections)*tableEntry)
	for _, s := range sections {
		off = (off + align - 1) / align * align
		var ent [tableEntry]byte
		copy(ent[:4], s.typ)
		le.PutUint64(ent[8:], off)
		le.PutUint64(ent[16:], uint64(len(s.payload)))
		sum := sha256.Sum256(s.payload)
		copy(ent[24:56], sum[:])
		buf = append(buf, ent[:]...)
		off += uint64(len(s.payload))
	}
	for _, s := range sections {
		buf = append(buf, make([]byte, (align-len(buf)%align)%align)...)
		buf = append(buf, s.payload...)
	}
	crc := crc32.ChecksumIEEE(buf)
	return le.AppendUint32(le.AppendUint32(buf, crc), ^crc)
}

// Decode parses snapshot file bytes, verifying the envelope CRC and every
// section digest before touching any payload. The returned graph is frozen
// and owns a fresh symbol table; rules and predicate are bound to it.
func Decode(data []byte) (*Data, error) {
	if len(data) < headerLen+trailerLen {
		return nil, formatErrf("", "file truncated: %d bytes", len(data))
	}
	if string(data[:4]) != magic {
		return nil, formatErrf("", "bad magic %q", data[:4])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[4:]); v != version {
		return nil, formatErrf("", "unsupported version %d (want %d)", v, version)
	}
	body := data[:len(data)-trailerLen]
	crc := le.Uint32(data[len(data)-8:])
	inv := le.Uint32(data[len(data)-4:])
	if crc != ^inv {
		return nil, formatErrf("", "trailer mismatch: crc %08x vs complement %08x", crc, inv)
	}
	if got := crc32.ChecksumIEEE(body); got != crc {
		return nil, formatErrf("", "file CRC mismatch: computed %08x, stored %08x", got, crc)
	}

	gen := le.Uint64(data[8:])
	nsect := int(le.Uint32(data[16:]))
	if nsect > maxSections {
		return nil, formatErrf("", "section count %d exceeds limit %d", nsect, maxSections)
	}
	if headerLen+nsect*tableEntry > len(body) {
		return nil, formatErrf("", "section table truncated")
	}
	payloads := make(map[string][]byte, nsect)
	for i := 0; i < nsect; i++ {
		ent := data[headerLen+i*tableEntry:]
		typ := string(bytes.TrimRight(ent[:4], "\x00"))
		off := le.Uint64(ent[8:])
		n := le.Uint64(ent[16:])
		if off > uint64(len(body)) || n > uint64(len(body))-off {
			return nil, formatErrf(typ, "section [%d, +%d) outside file of %d bytes", off, n, len(body))
		}
		payload := body[off : off+n]
		var want [32]byte
		copy(want[:], ent[24:56])
		if sum := sha256.Sum256(payload); sum != want {
			return nil, formatErrf(typ, "section digest mismatch")
		}
		payloads[typ] = payload
	}
	for _, typ := range []string{secSymbols, secGraph, secPred, secRules} {
		if _, ok := payloads[typ]; !ok {
			return nil, formatErrf(typ, "section missing")
		}
	}

	syms, err := decodeSymbols(payloads[secSymbols])
	if err != nil {
		return nil, err
	}
	g, err := decodeGraph(payloads[secGraph], syms)
	if err != nil {
		return nil, err
	}
	pred, err := decodePred(payloads[secPred], syms)
	if err != nil {
		return nil, err
	}
	rules, err := decodeRules(payloads[secRules], syms)
	if err != nil {
		return nil, err
	}
	return &Data{Generation: gen, Graph: g, Pred: pred, Rules: rules}, nil
}

func encodeSymbols(syms *graph.Symbols) []byte {
	names := syms.Names()
	var buf bytes.Buffer
	var u32 [4]byte
	le := binary.LittleEndian
	le.PutUint32(u32[:], uint32(len(names)))
	buf.Write(u32[:])
	for _, n := range names {
		le.PutUint32(u32[:], uint32(len(n)))
		buf.Write(u32[:])
		buf.WriteString(n)
	}
	return buf.Bytes()
}

func decodeSymbols(b []byte) (*graph.Symbols, error) {
	le := binary.LittleEndian
	if len(b) < 4 {
		return nil, formatErrf(secSymbols, "truncated count")
	}
	count := int(le.Uint32(b))
	b = b[4:]
	syms := graph.NewSymbols()
	for i := 0; i < count; i++ {
		if len(b) < 4 {
			return nil, formatErrf(secSymbols, "truncated name %d length", i)
		}
		n := int(le.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return nil, formatErrf(secSymbols, "name %d of %d bytes overruns section", i, n)
		}
		// Interning in stored order reassigns the identical label IDs.
		if got, want := syms.Intern(string(b[:n])), graph.Label(i+1); got != want {
			return nil, formatErrf(secSymbols, "duplicate name %q", b[:n])
		}
		b = b[n:]
	}
	if len(b) != 0 {
		return nil, formatErrf(secSymbols, "%d trailing bytes", len(b))
	}
	return syms, nil
}

func encodeGraph(g *graph.Graph) []byte {
	n := g.NumNodes()
	numE := g.NumEdges()
	out := make([]byte, 0, 8+4*n*2+8*numE)
	le := binary.LittleEndian
	out = le.AppendUint32(out, uint32(n))
	out = le.AppendUint32(out, uint32(numE))
	for v := 0; v < n; v++ {
		out = le.AppendUint32(out, uint32(g.Label(graph.NodeID(v))))
	}
	for v := 0; v < n; v++ {
		out = le.AppendUint32(out, uint32(len(g.Out(graph.NodeID(v)))))
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			out = le.AppendUint32(out, uint32(e.Label))
			out = le.AppendUint32(out, uint32(e.To))
		}
	}
	return out
}

func decodeGraph(b []byte, syms *graph.Symbols) (*graph.Graph, error) {
	le := binary.LittleEndian
	if len(b) < 8 {
		return nil, formatErrf(secGraph, "truncated header")
	}
	n := int(le.Uint32(b))
	numE := int(le.Uint32(b[4:]))
	if n < 0 || numE < 0 {
		return nil, formatErrf(secGraph, "negative counts")
	}
	want := 8 + 4*2*n + 8*numE
	if len(b) != want {
		return nil, formatErrf(secGraph, "section is %d bytes, want %d for %d nodes / %d edges", len(b), want, n, numE)
	}
	// Parse only: FromCSR checks labels, targets, order and that the
	// degrees sum to numE. A degree wrapping int32 makes the offsets run
	// backwards, which it rejects too.
	labels := make([]graph.Label, n)
	outOff := make([]int32, n+1)
	for v := range n {
		labels[v] = graph.Label(le.Uint32(b[8+4*v:]))
		outOff[v+1] = outOff[v] + int32(le.Uint32(b[8+4*n+4*v:]))
	}
	out, edges := make([]graph.Edge, numE), b[8+8*n:]
	for i := range out {
		out[i] = graph.Edge{Label: graph.Label(le.Uint32(edges[8*i:])), To: graph.NodeID(le.Uint32(edges[8*i+4:]))}
	}
	g, err := graph.FromCSR(syms, labels, outOff, out)
	if err != nil {
		return nil, formatErrf(secGraph, "%v", err)
	}
	return g, nil
}

func encodePred(p core.Predicate) []byte {
	le := binary.LittleEndian
	out := make([]byte, 0, 12)
	out = le.AppendUint32(out, uint32(p.XLabel))
	out = le.AppendUint32(out, uint32(p.EdgeLabel))
	out = le.AppendUint32(out, uint32(p.YLabel))
	return out
}

func decodePred(b []byte, syms *graph.Symbols) (core.Predicate, error) {
	if len(b) != 12 {
		return core.Predicate{}, formatErrf(secPred, "section is %d bytes, want 12", len(b))
	}
	le := binary.LittleEndian
	var p core.Predicate
	labels := [3]*graph.Label{&p.XLabel, &p.EdgeLabel, &p.YLabel}
	for i, dst := range labels {
		l := le.Uint32(b[4*i:])
		if l == 0 || l > uint32(syms.Len()) {
			return core.Predicate{}, formatErrf(secPred, "label %d outside symbol table of %d", l, syms.Len())
		}
		*dst = graph.Label(l)
	}
	return p, nil
}

func encodeRules(rules []*core.Rule) []byte {
	var buf bytes.Buffer
	// strings in a bytes.Buffer never fail; WriteRules only returns writer errors.
	_ = core.WriteRules(&buf, rules)
	return buf.Bytes()
}

func decodeRules(b []byte, syms *graph.Symbols) ([]*core.Rule, error) {
	rules, err := core.ReadRules(bytes.NewReader(b), syms)
	if err != nil {
		return nil, formatErrf(secRules, "%v", err)
	}
	return rules, nil
}

// Write encodes d and lands it at path crash-safely through fsys: the
// bytes go to a temp file in the same directory, the file content is
// fsynced, the temp file is atomically renamed over path, and the
// directory is fsynced so the rename itself is durable. A crash at any
// point leaves either the old file or the new one, never a mix.
func Write(fsys diskfault.FS, path string, d *Data) error {
	data := Encode(d)
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("snapfile: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("snapfile: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("snapfile: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapfile: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapfile: rename %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("snapfile: sync dir %s: %w", dir, err)
	}
	return nil
}

// Read loads and decodes the snapshot at path. Decode failures carry the
// path in their *FormatError so callers can quarantine the file.
func Read(fsys diskfault.FS, path string) (*Data, error) {
	raw, err := diskfault.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	d, err := Decode(raw)
	if err != nil {
		var fe *FormatError
		if errors.As(err, &fe) {
			fe.Path = path
		}
		return nil, err
	}
	return d, nil
}
