package diskfault

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

func writeAll(t *testing.T, fsys FS, path string, data []byte) File {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
	return f
}

func readAll(t *testing.T, fsys FS, path string) []byte {
	t.Helper()
	b, err := ReadFile(fsys, path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return b
}

// Unsynced writes do not survive a crash; synced ones do.
func TestCrashDropsUnsynced(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "d/a", []byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" volatile")); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	if !m.Crashed() {
		t.Fatal("not crashed")
	}
	if _, err := ReadFile(m, "d/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read while crashed: %v", err)
	}
	m.Reboot()
	if got := readAll(t, m, "d/a"); string(got) != "durable" {
		t.Fatalf("after crash: %q", got)
	}
}

// A kill-point fault tears the write at an exact byte offset: ShortWrite
// bytes land in the volatile view and KeepTail of the unsynced tail
// survives the crash.
func TestTornWriteKillPoint(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "wal", []byte("base"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	m.Inject(Fault{Op: OpWrite, Path: "wal", ShortWrite: 3, Kill: true, KeepTail: 2})
	_, err := f.Write([]byte("record"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	m.Reboot()
	// 3 bytes of "record" were applied volatile; 2 of those survived.
	if got := readAll(t, m, "wal"); string(got) != "basere" {
		t.Fatalf("after torn write: %q", got)
	}
}

// Countdown fires the fault on the Nth matching call.
func TestCountdown(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "x", nil)
	m.Inject(Fault{Op: OpWrite, Path: "x", Countdown: 2, Err: ErrInjected})
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("a")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := f.Write([]byte("a")); !errors.Is(err, ErrInjected) {
		t.Fatalf("third write: %v", err)
	}
	if _, err := f.Write([]byte("a")); err != nil {
		t.Fatalf("fault not spent: %v", err)
	}
}

// An ignored fsync reports success but leaves the bytes volatile.
func TestIgnoredSync(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "x", []byte("data"))
	m.Inject(Fault{Op: OpSync, IgnoreSync: true})
	if err := f.Sync(); err != nil {
		t.Fatalf("ignored sync returned %v", err)
	}
	m.Crash()
	m.Reboot()
	if got := readAll(t, m, "x"); len(got) != 0 {
		t.Fatalf("lying fsync persisted %q", got)
	}
}

// A failed fsync returns its error and leaves the bytes volatile.
func TestFailedSync(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "x", []byte("data"))
	m.Inject(Fault{Op: OpSync, Err: ErrInjected})
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync: %v", err)
	}
	m.Crash()
	m.Reboot()
	if got := readAll(t, m, "x"); len(got) != 0 {
		t.Fatalf("failed fsync persisted %q", got)
	}
}

// CorruptDurable flips a bit in the durable image.
func TestCorruptDurable(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "x", []byte{0x10, 0x20})
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if !m.CorruptDurable("x", 1) {
		t.Fatal("corrupt failed")
	}
	if got := readAll(t, m, "x"); !bytes.Equal(got, []byte{0x10, 0x21}) {
		t.Fatalf("got % x", got)
	}
	if m.CorruptDurable("x", 99) || m.CorruptDurable("missing", 0) {
		t.Fatal("out-of-range corrupt reported success")
	}
}

// Rename replaces the target and ReadDir lists what exists.
func TestRenameAndReadDir(t *testing.T) {
	m := NewMemFS()
	writeAll(t, m, "d/tmp1", []byte("new"))
	writeAll(t, m, "d/final", []byte("old"))
	if err := m.Rename("d/tmp1", "d/final"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, m, "d/final"); string(got) != "new" {
		t.Fatalf("rename target: %q", got)
	}
	names, err := m.ReadDir("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "final" {
		t.Fatalf("readdir: %v", names)
	}
	if _, err := m.ReadDir("nope"); !IsNotExist(err) {
		t.Fatalf("missing dir: %v", err)
	}
}

// Reopening an existing file for write without O_TRUNC appends.
func TestReopenAppends(t *testing.T) {
	m := NewMemFS()
	f := writeAll(t, m, "x", []byte("ab"))
	f.Close()
	g, err := m.OpenFile("x", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("cd")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, m, "x"); string(got) != "abcd" {
		t.Fatalf("got %q", got)
	}
}

// The OS implementation round-trips through a real temp dir.
func TestOSRoundTrip(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	if err := fsys.MkdirAll(dir+"/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	f := writeAll(t, fsys, dir+"/sub/a.tmp", []byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := fsys.Rename(dir+"/sub/a.tmp", dir+"/sub/a"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fsys, dir+"/sub/a"); string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	names, err := fsys.ReadDir(dir + "/sub")
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("readdir: %v, %v", names, err)
	}
	if err := fsys.Remove(dir + "/sub/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(fsys, dir+"/sub/a"); !IsNotExist(err) {
		t.Fatalf("after remove: %v", err)
	}
	rf, err := fsys.OpenFile(dir+"/sub/missing", os.O_RDONLY, 0)
	if err == nil {
		rf.Close()
		t.Fatal("open missing succeeded")
	}
}
