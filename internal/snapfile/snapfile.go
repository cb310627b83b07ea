// Package snapfile is the on-disk snapshot format for a gpard serving
// state: one versioned file holding the symbol table, the frozen graph's
// CSR arenas, the predicate and the mined rule set Σ under one checksum.
// It is gpard's checkpoint: a daemon restarts by reading one file instead
// of re-ingesting and re-freezing.
//
// Layout (all integers little-endian):
//
//	header   16 bytes  magic "GPSN", version u32, generation u64
//	SYMB               symbol table: count u32, then per name len u32 +
//	                   bytes, in label order — re-interning in order
//	                   reproduces identical IDs
//	GRPH               the graph in graph.AppendCSR's encoding: node and
//	                   edge counts, labels, out-degrees, (label, to) edges
//	                   in frozen (Label, To) order
//	PRED     12 bytes  xLabel, edgeLabel, yLabel as u32 label IDs
//	RULE               length u32, then Σ in the core.WriteRules text format
//	trailer  8 bytes   CRC-32 (IEEE) of everything before it, stored
//	                   as u32 crc, u32 ^crc
//
// The encoding is canonical: edges are written in the frozen (Label, To)
// adjacency order — which delta overlays also maintain — so encoding a
// graph, decoding it, and encoding again is byte-identical, including
// across a delta overlay vs its compacted equivalent.
//
// Write lands the file crash-safely: temp file in the same directory,
// content fsync, atomic rename, directory fsync — through the
// diskfault.FS abstraction so the fault-injection harness can script
// every failure mode in between. Read verifies magic, version and the
// whole-file CRC before decoding, and returns *FormatError for any
// violation, so callers can quarantine rather than serve a partial state.
package snapfile

import (
	"bytes"
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
	version    = 2
	headerLen  = 16
	trailerLen = 8

	// Section names for FormatError; the file holds the sections in this
	// order without tags.
	secSymbols = "SYMB"
	secGraph   = "GRPH"
	secPred    = "PRED"
	secRules   = "RULE"
)

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
	le := binary.LittleEndian
	buf := le.AppendUint64(le.AppendUint32([]byte(magic), version), d.Generation)
	buf = appendSymbols(buf, d.Graph.Symbols())
	buf = d.Graph.AppendCSR(buf)
	buf = appendPred(buf, d.Pred)
	buf = appendRules(buf, d.Rules)
	crc := crc32.ChecksumIEEE(buf)
	return le.AppendUint32(le.AppendUint32(buf, crc), ^crc)
}

// Decode parses snapshot file bytes, verifying the envelope CRC before
// touching any section. The returned graph is frozen and owns a fresh
// symbol table; rules and predicate are bound to it.
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

	syms, b, err := decodeSymbols(body[headerLen:])
	if err != nil {
		return nil, err
	}
	g, b, err := graph.DecodeCSR(b, syms)
	if err != nil {
		return nil, formatErrf(secGraph, "%v", err)
	}
	pred, b, err := decodePred(b, syms)
	if err != nil {
		return nil, err
	}
	rules, b, err := decodeRules(b, syms)
	if err != nil {
		return nil, err
	}
	if len(b) != 0 {
		return nil, formatErrf("", "%d trailing bytes", len(b))
	}
	return &Data{Generation: le.Uint64(data[8:]), Graph: g, Pred: pred, Rules: rules}, nil
}

func appendSymbols(buf []byte, syms *graph.Symbols) []byte {
	le := binary.LittleEndian
	names := syms.Names()
	buf = le.AppendUint32(buf, uint32(len(names)))
	for _, n := range names {
		buf = append(le.AppendUint32(buf, uint32(len(n))), n...)
	}
	return buf
}

func decodeSymbols(b []byte) (*graph.Symbols, []byte, error) {
	le := binary.LittleEndian
	if len(b) < 4 {
		return nil, nil, formatErrf(secSymbols, "truncated count")
	}
	count := int(le.Uint32(b))
	b = b[4:]
	syms := graph.NewSymbols()
	for i := 0; i < count; i++ {
		if len(b) < 4 {
			return nil, nil, formatErrf(secSymbols, "truncated name %d length", i)
		}
		n := int(le.Uint32(b))
		b = b[4:]
		if n > len(b) {
			return nil, nil, formatErrf(secSymbols, "name %d of %d bytes overruns the file", i, n)
		}
		// Interning in stored order reassigns the identical label IDs.
		if got, want := syms.Intern(string(b[:n])), graph.Label(i+1); got != want {
			return nil, nil, formatErrf(secSymbols, "duplicate name %q", b[:n])
		}
		b = b[n:]
	}
	return syms, b, nil
}

func appendPred(buf []byte, p core.Predicate) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(p.XLabel))
	buf = le.AppendUint32(buf, uint32(p.EdgeLabel))
	return le.AppendUint32(buf, uint32(p.YLabel))
}

func decodePred(b []byte, syms *graph.Symbols) (core.Predicate, []byte, error) {
	if len(b) < 12 {
		return core.Predicate{}, nil, formatErrf(secPred, "%d bytes left, want 12", len(b))
	}
	le := binary.LittleEndian
	var p core.Predicate
	labels := [3]*graph.Label{&p.XLabel, &p.EdgeLabel, &p.YLabel}
	for i, dst := range labels {
		l := le.Uint32(b[4*i:])
		if l == 0 || l > uint32(syms.Len()) {
			return core.Predicate{}, nil, formatErrf(secPred, "label %d outside symbol table of %d", l, syms.Len())
		}
		*dst = graph.Label(l)
	}
	return p, b[12:], nil
}

func appendRules(buf []byte, rules []*core.Rule) []byte {
	var text bytes.Buffer
	// strings in a bytes.Buffer never fail; WriteRules only returns writer errors.
	_ = core.WriteRules(&text, rules)
	return append(binary.LittleEndian.AppendUint32(buf, uint32(text.Len())), text.Bytes()...)
}

func decodeRules(b []byte, syms *graph.Symbols) ([]*core.Rule, []byte, error) {
	if len(b) < 4 {
		return nil, nil, formatErrf(secRules, "truncated length")
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if b = b[4:]; n > uint64(len(b)) {
		return nil, nil, formatErrf(secRules, "%d bytes of rules overrun the %d left", n, len(b))
	}
	rules, err := core.ReadRules(bytes.NewReader(b[:n]), syms)
	if err != nil {
		return nil, nil, formatErrf(secRules, "%v", err)
	}
	return rules, b[n:], nil
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
