// The write-ahead log: every accepted POST /v1/graph/delta batch is
// appended as one CRC-framed record *before* the new generation is
// published, so a crash between accept and the next checkpoint replays the
// batch instead of losing it. Records carry the wire-level DeltaRequest
// (label names, not interned IDs) and are replayed through the same
// mapDeltaOps → ApplyDelta path as live traffic, which reproduces symbol
// interning order — and therefore serving state — exactly.
//
// File layout:
//
//	header  16 bytes  magic "GPWL", version u32, base generation u64
//	record  8+n bytes u32 payload length, u32 CRC-32 (IEEE) of payload,
//	                  payload = u64 generation + canonical JSON DeltaRequest
//
// The base generation names the snapshot the log extends: record k carries
// generation base+k. Rotation (at every checkpoint) starts a fresh log
// whose base is the checkpointed generation.

package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"gpar/internal/diskfault"
)

const (
	walMagic     = "GPWL"
	walVersion   = 1
	walHeaderLen = 16
)

// walMaxRecord bounds a record's payload on both sides of the log: a reader
// treats a longer length prefix as corruption, not an allocation request, so
// the writer refuses one with errRecordTooLarge (413 to the client) — an
// acknowledged batch must be one recovery will believe. A variable only so
// tests can reach the limit without building 64 MiB batches.
var (
	walMaxRecord      = 64 << 20
	errRecordTooLarge = errors.New("serve: delta batch too large to log")
)

// WALError is the typed error for a structurally invalid WAL file or
// record. Recovery treats it as a corrupt tail: replay stops, the file is
// quarantined, and the valid prefix wins.
type WALError struct {
	Path string
	Off  int64 // byte offset of the offending record, -1 for the header
	Msg  string
}

// Error implements error.
func (e *WALError) Error() string {
	if e.Off < 0 {
		return fmt.Sprintf("wal %s: %s", e.Path, e.Msg)
	}
	return fmt.Sprintf("wal %s: record at offset %d: %s", e.Path, e.Off, e.Msg)
}

// walRecord is one replayable delta batch.
type walRecord struct {
	Gen uint64
	Req DeltaRequest
}

// encodeWALRecord frames one record, refusing one over walMaxRecord.
func encodeWALRecord(gen uint64, req DeltaRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if 8+len(body) > walMaxRecord {
		return nil, fmt.Errorf("%w: %d bytes encoded, limit %d", errRecordTooLarge, 8+len(body), walMaxRecord)
	}
	payload := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint64(payload, gen)
	copy(payload[8:], body)
	rec := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	copy(rec[8:], payload)
	return rec, nil
}

// walWriter appends records to one log file. The persister's walMu
// serializes every call.
type walWriter struct {
	fs   diskfault.FS
	f    diskfault.File
	path string
}

// createWAL starts a fresh log at path with the given base generation,
// fsyncing the header (and the directory entry via the caller's SyncDir).
func createWAL(fs diskfault.FS, path string, base uint64) (*walWriter, error) {
	f, err := fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, walHeaderLen)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], walVersion)
	binary.LittleEndian.PutUint64(hdr[8:], base)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{fs: fs, f: f, path: path}, nil
}

// append frames and writes one record, syncing when sync is set.
func (w *walWriter) append(gen uint64, req DeltaRequest, sync bool) error {
	rec, err := encodeWALRecord(gen, req)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(rec); err != nil {
		return err
	}
	if sync {
		return w.f.Sync()
	}
	return nil
}

// close syncs and closes the file.
func (w *walWriter) close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// readWAL parses the log at path: its base generation, every record of the
// valid prefix, and — when the file ends in garbage — a *WALError
// describing the first invalid byte range alongside the records before it.
// A clean file returns err == nil.
func readWAL(fs diskfault.FS, path string) (base uint64, recs []walRecord, err error) {
	data, err := diskfault.ReadFile(fs, path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < walHeaderLen || string(data[:4]) != walMagic {
		return 0, nil, &WALError{Path: path, Off: -1, Msg: "missing GPWL header"}
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != walVersion {
		return 0, nil, &WALError{Path: path, Off: -1, Msg: fmt.Sprintf("unsupported version %d", v)}
	}
	base = binary.LittleEndian.Uint64(data[8:])
	off := int64(walHeaderLen)
	buf := data[walHeaderLen:]
	for len(buf) > 0 {
		if len(buf) < 8 {
			return base, recs, &WALError{Path: path, Off: off, Msg: fmt.Sprintf("torn frame header: %d trailing bytes", len(buf))}
		}
		n := binary.LittleEndian.Uint32(buf)
		crc := binary.LittleEndian.Uint32(buf[4:])
		if int64(n) > int64(walMaxRecord) {
			return base, recs, &WALError{Path: path, Off: off, Msg: fmt.Sprintf("implausible record length %d", n)}
		}
		if uint32(len(buf)-8) < n {
			return base, recs, &WALError{Path: path, Off: off, Msg: fmt.Sprintf("torn record: %d of %d payload bytes", len(buf)-8, n)}
		}
		payload := buf[8 : 8+n]
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return base, recs, &WALError{Path: path, Off: off, Msg: fmt.Sprintf("payload CRC mismatch: computed %08x, stored %08x", got, crc)}
		}
		if n < 8 {
			return base, recs, &WALError{Path: path, Off: off, Msg: "payload shorter than its generation header"}
		}
		var rec walRecord
		rec.Gen = binary.LittleEndian.Uint64(payload)
		if err := json.Unmarshal(payload[8:], &rec.Req); err != nil {
			return base, recs, &WALError{Path: path, Off: off, Msg: fmt.Sprintf("undecodable delta payload: %v", err)}
		}
		recs = append(recs, rec)
		buf = buf[8+n:]
		off += int64(8 + n)
	}
	return base, recs, nil
}
