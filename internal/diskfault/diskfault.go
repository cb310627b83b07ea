// Package diskfault abstracts the file operations the persistence layer
// performs (sequential write, fsync, atomic rename, directory listing) behind
// an injectable FS interface, and provides two implementations: the real
// operating-system filesystem, and an in-memory filesystem with
// crash-consistency semantics and scripted fault injection.
//
// The in-memory model is a caricature of a disk behind a volatile page
// cache: every write lands in a volatile view first, Sync makes the file's
// current bytes durable, and a crash (scripted kill-point or explicit
// Crash call) discards everything volatile — optionally keeping an exact
// byte-count prefix of the unsynced tail, which is how torn writes at
// precise offsets are produced. Scripted faults can also short-circuit a
// write after N bytes, fail an fsync, silently ignore an fsync (the
// lying-disk case), or flip a bit in already-durable data. This is the
// disk-side sibling of internal/netfault: the crash-recovery differential
// oracle in internal/serve drives randomized delta sequences into a server
// persisting through a MemFS, kills it at every injection point, recovers,
// and requires byte-identical serving state or a typed quarantine.
//
// Renames and removes are modeled as immediately durable (no directory-
// entry loss window); the interesting torn states all live in file data,
// and the write paths under test order content-fsync before rename anyway.
package diskfault

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// File is the per-file surface the persistence layer uses: the snapshot
// and WAL writers write sequentially, and readers read whole files.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync makes all bytes written so far durable: they survive a crash.
	Sync() error
}

// FS is the filesystem surface the persistence layer uses.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics for the flags used
	// here: os.O_RDONLY, and os.O_CREATE|os.O_WRONLY (truncate or append).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists the file names (not paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// MkdirAll creates dir and parents.
	MkdirAll(dir string, perm os.FileMode) error
	// SyncDir fsyncs the directory itself, making renames durable.
	SyncDir(dir string) error
}

// OS returns the real operating-system filesystem.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil File
	}
	return f, nil
}

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

// SyncDir opens the directory and fsyncs it, which is how a rename is made
// durable on POSIX filesystems.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadFile reads the whole file at name through fs.
func ReadFile(fsys FS, name string) ([]byte, error) {
	if _, ok := fsys.(osFS); ok {
		return os.ReadFile(name) // sized by a stat, not grown by doubling
	}
	f, err := fsys.OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// IsNotExist reports whether err means the file does not exist, for either
// implementation.
func IsNotExist(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, os.ErrNotExist)
}

// Clean normalizes a path the way both implementations key files.
func Clean(p string) string { return filepath.Clean(p) }
