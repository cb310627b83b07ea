package diskfault

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrInjected is the error scripted faults return when they fail an
// operation without crashing the filesystem.
var ErrInjected = errors.New("diskfault: injected fault")

// ErrCrashed is returned by every operation on a MemFS that has crashed
// (scripted kill-point or explicit Crash) until Reboot is called. The
// process under test treats it like the machine losing power: nothing
// else it does reaches the disk.
var ErrCrashed = errors.New("diskfault: filesystem crashed")

// Op selects which filesystem operation a scripted fault intercepts.
type Op int

// The interceptable operations.
const (
	OpWrite Op = iota + 1 // File.Write / File.WriteAt
	OpSync                // File.Sync
	OpRename
	OpRemove
	OpOpen
)

// String names the op for test logs.
func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpOpen:
		return "open"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Fault scripts one fault. Path is a substring match against the file path
// ("" matches every path); Countdown skips that many matching calls before
// firing (0 = fire on the first). Exactly one fault fires per matching
// call; fired faults are spent and removed.
type Fault struct {
	Op        Op
	Path      string
	Countdown int

	// ShortWrite, for OpWrite, controls how much of the payload is applied
	// before the fault takes effect: 0 (the zero value) applies it all,
	// n > 0 applies only the first n bytes (torn write at an exact byte
	// offset), and negative applies nothing.
	ShortWrite int
	// Err, when non-nil, is returned from the operation (after any partial
	// effect). ENOSPC-style failures use this without Kill.
	Err error
	// Kill crashes the filesystem after the (partial) operation: all
	// unsynced bytes of every file are lost, except KeepTail bytes of this
	// file's unsynced tail (simulating the page cache having flushed part
	// of it). Every subsequent operation returns ErrCrashed until Reboot.
	Kill bool
	// KeepTail, with Kill on an OpWrite fault, preserves this many bytes of
	// the written file's unsynced tail across the crash.
	KeepTail int
	// IgnoreSync, for OpSync, reports success without making anything
	// durable — the lying-disk case. Bit flips (silent media corruption)
	// are scripted separately with MemFS.CorruptDurable, which edits the
	// durable image directly between process lifetimes.
	IgnoreSync bool
}

// memFile is one file: durable is what survives a crash, data is the live
// (volatile) view every open handle reads and writes.
type memFile struct {
	data    []byte
	durable []byte
}

// MemFS is the in-memory crash-simulating filesystem. Safe for concurrent
// use; fault scripting is typically done before the code under test runs.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	faults  []Fault
	crashed bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

// Inject schedules a scripted fault. Faults fire at most once, in the
// order injected among those matching the same call.
func (m *MemFS) Inject(f Fault) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = append(m.faults, f)
}

// Crash simulates power loss: every file reverts to its durable bytes.
// Operations fail with ErrCrashed until Reboot.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashLocked(nil, 0)
}

// Reboot clears the crashed state, as if the machine restarted. File
// contents are whatever the crash preserved.
func (m *MemFS) Reboot() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.crashed = false
}

// Crashed reports whether the filesystem is in the post-crash state.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// CorruptDurable XORs bit 0 of the durable byte at off in the file at
// path, returning false if the file does not exist or is shorter. It
// models silent media corruption between process lifetimes.
func (m *MemFS) CorruptDurable(path string, off int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[Clean(path)]
	if !ok || off < 0 || off >= int64(len(f.durable)) {
		return false
	}
	f.durable[off] ^= 1
	// The live view mirrors the durable image when nothing volatile is
	// pending; corrupt it too so a reader that never crashed also sees it.
	if off < int64(len(f.data)) {
		f.data[off] ^= 1
	}
	return true
}

// DurableLen reports the durable byte count of path (-1 if absent).
func (m *MemFS) DurableLen(path string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[Clean(path)]
	if !ok {
		return -1
	}
	return int64(len(f.durable))
}

// crashLocked reverts every file to durable bytes. keepFile, when non-nil,
// additionally keeps keep bytes of that file's unsynced tail.
func (m *MemFS) crashLocked(keepFile *memFile, keep int) {
	for _, f := range m.files {
		if f == keepFile && keep > 0 {
			n := len(f.durable) + keep
			if n > len(f.data) {
				n = len(f.data)
			}
			f.durable = append([]byte(nil), f.data[:n]...)
		}
		f.data = append([]byte(nil), f.durable...)
	}
	m.crashed = true
}

// takeFault pops the first pending fault matching (op, path), honoring
// countdowns. Caller holds mu.
func (m *MemFS) takeFault(op Op, path string) *Fault {
	for i := range m.faults {
		f := &m.faults[i]
		if f.Op != op || !strings.Contains(path, f.Path) {
			continue
		}
		if f.Countdown > 0 {
			f.Countdown--
			return nil
		}
		fired := *f
		m.faults = append(m.faults[:i], m.faults[i+1:]...)
		return &fired
	}
	return nil
}

func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	name = Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	if f := m.takeFault(OpOpen, name); f != nil {
		if f.Kill {
			m.crashLocked(nil, 0)
			return nil, ErrCrashed
		}
		if f.Err != nil {
			return nil, f.Err
		}
	}
	mf, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, &os.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
		}
		mf = &memFile{}
		m.files[name] = mf
		m.dirs[filepath.Dir(name)] = true
	} else if flag&os.O_TRUNC != 0 {
		mf.data = nil
	}
	h := &memHandle{fs: m, f: mf, path: name}
	if flag&os.O_APPEND != 0 || flag&os.O_WRONLY != 0 && flag&os.O_TRUNC == 0 && ok {
		h.pos = int64(len(mf.data))
	}
	return h, nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	oldname, newname = Clean(oldname), Clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if f := m.takeFault(OpRename, oldname); f != nil {
		if f.Kill {
			m.crashLocked(nil, 0)
			return ErrCrashed
		}
		if f.Err != nil {
			return f.Err
		}
	}
	mf, ok := m.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = mf
	m.dirs[filepath.Dir(newname)] = true
	return nil
}

func (m *MemFS) Remove(name string) error {
	name = Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if f := m.takeFault(OpRemove, name); f != nil {
		if f.Kill {
			m.crashLocked(nil, 0)
			return ErrCrashed
		}
		if f.Err != nil {
			return f.Err
		}
	}
	if _, ok := m.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	dir = Clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	var names []string
	for p := range m.files {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	if names == nil && !m.dirs[dir] {
		return nil, &os.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) MkdirAll(dir string, perm os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	m.dirs[Clean(dir)] = true
	return nil
}

func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	return nil // renames are modeled as immediately durable
}

// memHandle is one open descriptor: a position over a memFile.
type memHandle struct {
	fs   *MemFS
	f    *memFile
	path string
	pos  int64
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.pos >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[h.pos:])
	h.pos += int64(n)
	return n, nil
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if off >= int64(len(h.f.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n, err := h.writeAtLocked(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return h.writeAtLocked(p, off)
}

// writeAtLocked performs the write with fault interception. Caller holds
// fs.mu.
func (h *memHandle) writeAtLocked(p []byte, off int64) (int, error) {
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	var fault *Fault
	n := len(p)
	if f := h.fs.takeFault(OpWrite, h.path); f != nil {
		fault = f
		switch {
		case f.ShortWrite < 0:
			n = 0
		case f.ShortWrite > 0 && f.ShortWrite < n:
			n = f.ShortWrite
		}
	}
	end := off + int64(n)
	if end > int64(len(h.f.data)) {
		grown := make([]byte, end)
		copy(grown, h.f.data)
		h.f.data = grown
	}
	copy(h.f.data[off:end], p[:n])
	if fault == nil {
		return n, nil
	}
	if fault.Kill {
		h.fs.crashLocked(h.f, fault.KeepTail)
		return n, ErrCrashed
	}
	if fault.Err != nil {
		return n, fault.Err
	}
	if n < len(p) {
		return n, io.ErrShortWrite
	}
	return n, nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return ErrCrashed
	}
	if f := h.fs.takeFault(OpSync, h.path); f != nil {
		if f.Kill {
			h.fs.crashLocked(nil, 0)
			return ErrCrashed
		}
		if f.IgnoreSync {
			return nil
		}
		if f.Err != nil {
			return f.Err
		}
	}
	h.f.durable = append([]byte(nil), h.f.data...)
	return nil
}

func (h *memHandle) Close() error { return nil }

func (h *memHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	return int64(len(h.f.data)), nil
}
