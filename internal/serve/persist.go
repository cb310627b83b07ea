// Persistence: the durability layer over snapshot files (internal/snapfile)
// and the delta WAL (wal.go). The invariant is that every generation change
// is durable before it is published: publish appends a delta batch's WAL
// record, and checkpoints a full snapshot file and rotates the WAL for
// every other swap (LoadSnapshot, SwapRules, a mine job's install,
// Compact) — all before s.snap.Store, rolling the generation back on
// failure, so a partial generation is never served and never recovered.
//
// On disk, a data directory holds:
//
//	snap-<gen16x>.gpsnap   full serving state at generation <gen>
//	wal-<gen16x>.wal       delta batches extending snapshot <gen>
//	*.corrupt              quarantined files — never deleted automatically
//	*.tmp                  in-flight snapshot writes (crash leftovers)
//
// Recovery (Server.Recover) loads the newest readable snapshot, replays
// the valid prefix of its WAL chain through the normal ApplyDelta path
// (same interning order, byte-identical state), re-checkpoints, and only
// then quarantines corrupt files and prunes obsolete ones — so a crash
// during recovery itself finds the disk no worse than before.

package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gpar/internal/core"
	"gpar/internal/diskfault"
	"gpar/internal/snapfile"
)

// SyncPolicy selects when WAL appends reach durable storage.
type SyncPolicy string

// The WAL sync policies: fsync every record (no accepted batch is ever
// lost), or never fsync a record explicitly (the OS decides; crash loss is
// unbounded but replay is still exact up to the torn tail). Either way a
// checkpoint's WAL rotation and Shutdown sync the log.
const (
	SyncAlways SyncPolicy = "always"
	SyncNone   SyncPolicy = "none"
)

// PersistOptions configures on-disk durability for a Server.
type PersistOptions struct {
	// Dir is the data directory; created if missing.
	Dir string
	// FS is the filesystem to persist through. Nil means the real one;
	// tests inject a diskfault.MemFS.
	FS diskfault.FS
	// Sync is the WAL sync policy. Default SyncAlways.
	Sync SyncPolicy
}

// retainSnapshots is how many checkpointed snapshots (with their WALs) a
// data directory keeps.
const retainSnapshots = 2

// RecoveryError is the typed error for a data directory that holds
// snapshots but none of them is readable: the server refuses to start
// fresh over data it cannot read — no silent data loss.
type RecoveryError struct {
	Dir         string
	Quarantined []string
	Msg         string
}

// Error implements error.
func (e *RecoveryError) Error() string {
	return fmt.Sprintf("serve: recovery of %s failed: %s (quarantined: %s)",
		e.Dir, e.Msg, strings.Join(e.Quarantined, ", "))
}

// RecoveryReport describes what Recover did.
type RecoveryReport struct {
	// Recovered is false when the data directory held no snapshot: the
	// caller should load initial state the ordinary way.
	Recovered bool
	// Generation is the recovered serving generation.
	Generation uint64
	// Snapshot is the file name of the snapshot that was loaded.
	Snapshot string
	// Replayed counts WAL records applied on top of the snapshot.
	Replayed int
	// Truncated counts WAL records dropped (corrupt tail or a generation
	// gap behind a quarantined file).
	Truncated int
	// Quarantined lists files renamed to *.corrupt.
	Quarantined []string
}

// PersistenceStats is the /stats view of the durability layer.
type PersistenceStats struct {
	Dir                      string `json:"dir"`
	FsyncPolicy              string `json:"fsyncPolicy"`
	SnapshotLoads            int64  `json:"snapshotLoads"`
	WALRecords               int64  `json:"walRecords"`
	WALReplayed              int64  `json:"walReplayed"`
	WALTruncated             int64  `json:"walTruncated"`
	Quarantines              int64  `json:"quarantines"`
	LastCheckpointGeneration uint64 `json:"lastCheckpointGeneration"`
}

// persister owns the server's durability state.
type persister struct {
	fs     diskfault.FS
	dir    string
	policy SyncPolicy

	// walMu orders WAL file operations: append and rotation under swapMu,
	// and close from Shutdown, which does not hold it.
	walMu    sync.Mutex
	wal      *walWriter
	closeErr error

	// suppress, guarded by the server's swapMu, turns checkpoint and
	// append hooks off while Recover replays history through the normal
	// swap paths.
	suppress bool

	nSnapLoads    atomic.Int64
	nWalRecords   atomic.Int64
	nWalReplayed  atomic.Int64
	nWalTruncated atomic.Int64
	nQuarantines  atomic.Int64
	lastCkpt      atomic.Uint64
}

func (p *persister) snapName(gen uint64) string { return fmt.Sprintf("snap-%016x.gpsnap", gen) }
func (p *persister) walName(gen uint64) string  { return fmt.Sprintf("wal-%016x.wal", gen) }

// parseGen extracts the generation from a snap-/wal- file name, reporting
// whether name has the given prefix+suffix shape at all.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	var gen uint64
	if _, err := fmt.Sscanf(mid, "%016x", &gen); err != nil || len(mid) != 16 {
		return 0, false
	}
	return gen, true
}

// EnablePersistence arms the durability layer: subsequent snapshot swaps
// checkpoint to opts.Dir and delta batches append to the WAL before they
// are published. Call it before LoadSnapshot (the usual boot order is
// EnablePersistence → Recover → LoadSnapshot if nothing was recovered);
// if a snapshot is already installed it is checkpointed immediately.
func (s *Server) EnablePersistence(opts PersistOptions) error {
	if opts.Dir == "" {
		return fmt.Errorf("serve: persistence requires a data directory")
	}
	if opts.FS == nil {
		opts.FS = diskfault.OS()
	}
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	}
	if opts.Sync != SyncAlways && opts.Sync != SyncNone {
		return fmt.Errorf("serve: unknown WAL sync policy %q (want %q or %q)", opts.Sync, SyncAlways, SyncNone)
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return fmt.Errorf("serve: create data dir: %w", err)
	}
	p := &persister{fs: opts.FS, dir: opts.Dir, policy: opts.Sync}

	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.persist != nil {
		return fmt.Errorf("serve: persistence already enabled")
	}
	s.persist = p
	if snap := s.snap.Load(); snap != nil {
		if err := p.checkpoint(snap); err != nil {
			s.persist = nil
			return err
		}
	}
	return nil
}

// close syncs and closes the WAL. Idempotent: a repeat call returns the
// first call's error.
func (p *persister) close() error {
	p.walMu.Lock()
	defer p.walMu.Unlock()
	if p.wal != nil {
		p.closeErr = p.wal.close()
		p.wal = nil
	}
	return p.closeErr
}

// appendDelta makes one accepted delta batch durable per the sync policy.
// Called under swapMu before the new generation is published; an error
// aborts the publish.
func (p *persister) appendDelta(gen uint64, req DeltaRequest) error {
	p.walMu.Lock()
	defer p.walMu.Unlock()
	if p.wal == nil {
		return fmt.Errorf("serve: wal not open (previous checkpoint failed?)")
	}
	if err := p.wal.append(gen, req, p.policy == SyncAlways); err != nil {
		return err
	}
	p.nWalRecords.Add(1)
	return nil
}

// checkpoint writes the full serving state as a snapshot file and rotates
// the WAL to start from it. Called under swapMu before the snapshot is
// published; an error aborts the publish (and leaves the WAL closed, so
// subsequent deltas fail loudly instead of going un-logged).
func (p *persister) checkpoint(snap *Snapshot) error {
	rules := make([]*core.Rule, len(snap.Rules))
	for i, sr := range snap.Rules {
		rules[i] = sr.Rule
	}
	data := &snapfile.Data{Generation: snap.Gen, Graph: snap.G, Pred: snap.Pred, Rules: rules}
	if err := snapfile.Write(p.fs, filepath.Join(p.dir, p.snapName(snap.Gen)), data); err != nil {
		return err
	}
	p.walMu.Lock()
	defer p.walMu.Unlock()
	if p.wal != nil {
		if err := p.wal.close(); err != nil {
			p.wal = nil
			return err
		}
		p.wal = nil
	}
	w, err := createWAL(p.fs, filepath.Join(p.dir, p.walName(snap.Gen)), snap.Gen)
	if err != nil {
		return err
	}
	if err := p.fs.SyncDir(p.dir); err != nil {
		w.close()
		return err
	}
	p.wal = w
	p.lastCkpt.Store(snap.Gen)
	p.prune(snap.Gen)
	return nil
}

// prune removes snapshots beyond the retention window, WALs with no
// retained base, and stale temp files. Quarantined *.corrupt files are
// never touched. Best-effort: pruning failures leave garbage, not damage.
func (p *persister) prune(curGen uint64) {
	names, err := p.fs.ReadDir(p.dir)
	if err != nil {
		return
	}
	var snapGens []uint64
	for _, n := range names {
		if g, ok := parseGen(n, "snap-", ".gpsnap"); ok {
			snapGens = append(snapGens, g)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	keep := snapGens
	if len(keep) > retainSnapshots {
		keep = keep[:retainSnapshots]
	}
	oldest := curGen
	kept := make(map[uint64]bool, len(keep))
	for _, g := range keep {
		kept[g] = true
		if g < oldest {
			oldest = g
		}
	}
	for _, n := range names {
		switch {
		case strings.HasSuffix(n, ".tmp"):
			p.fs.Remove(filepath.Join(p.dir, n))
		case strings.HasSuffix(n, ".corrupt"):
			// quarantined: operator territory
		default:
			if g, ok := parseGen(n, "snap-", ".gpsnap"); ok && !kept[g] {
				p.fs.Remove(filepath.Join(p.dir, n))
			}
			if g, ok := parseGen(n, "wal-", ".wal"); ok && g < oldest {
				p.fs.Remove(filepath.Join(p.dir, n))
			}
		}
	}
}

// quarantine renames a corrupt file out of the recovery path, preserving
// its bytes for forensics. Never deletes.
func (p *persister) quarantine(name string) string {
	from := filepath.Join(p.dir, name)
	to := from + ".corrupt"
	// A previous quarantine of the same name is itself evidence; keep it.
	for i := 1; ; i++ {
		f, err := p.fs.OpenFile(to, os.O_RDONLY, 0)
		if err != nil {
			break
		}
		f.Close()
		to = fmt.Sprintf("%s.corrupt.%d", from, i)
	}
	if err := p.fs.Rename(from, to); err != nil {
		return ""
	}
	p.nQuarantines.Add(1)
	return filepath.Base(to)
}

// stats snapshots the persistence counters for /stats.
func (p *persister) stats() *PersistenceStats {
	return &PersistenceStats{
		Dir:                      p.dir,
		FsyncPolicy:              string(p.policy),
		SnapshotLoads:            p.nSnapLoads.Load(),
		WALRecords:               p.nWalRecords.Load(),
		WALReplayed:              p.nWalReplayed.Load(),
		WALTruncated:             p.nWalTruncated.Load(),
		Quarantines:              p.nQuarantines.Load(),
		LastCheckpointGeneration: p.lastCkpt.Load(),
	}
}

// persistGen makes a generation durable before publish stores it: a WAL
// record for a delta batch (req non-nil), a checkpoint for every other
// change. A no-op without persistence or during recovery replay. Caller
// holds swapMu and has assigned snap.Gen.
func (s *Server) persistGen(snap *Snapshot, req *DeltaRequest) error {
	p := s.persist
	if p == nil || p.suppress {
		return nil
	}
	if req != nil {
		return p.appendDelta(snap.Gen, *req)
	}
	return p.checkpoint(snap)
}

// Recover restores serving state from the data directory: it loads the
// newest readable snapshot, replays the valid prefix of the WAL chain
// through the normal delta path, re-checkpoints the result, and only then
// quarantines corrupt files (renamed to *.corrupt, never deleted) and
// prunes obsolete ones. With no snapshot on disk it reports
// Recovered=false and the caller boots the ordinary way. A directory whose
// snapshots are all unreadable returns a *RecoveryError: the server will
// not silently start empty over data it cannot read.
func (s *Server) Recover() (*RecoveryReport, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	p := s.persist
	if p == nil {
		return nil, fmt.Errorf("serve: persistence not enabled")
	}
	if s.snap.Load() != nil {
		return nil, fmt.Errorf("serve: recover must run before a snapshot is loaded")
	}

	names, err := p.fs.ReadDir(p.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: list data dir: %w", err)
	}
	type snapCand struct {
		gen  uint64
		name string
	}
	var snaps []snapCand
	walsByBase := map[uint64]string{}
	for _, n := range names {
		if g, ok := parseGen(n, "snap-", ".gpsnap"); ok {
			snaps = append(snaps, snapCand{gen: g, name: n})
		}
		if g, ok := parseGen(n, "wal-", ".wal"); ok {
			walsByBase[g] = n
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].gen > snaps[j].gen })

	rep := &RecoveryReport{}
	var toQuarantine []string

	// Phase 1 (read-only): newest readable snapshot.
	var chosen *snapfile.Data
	for _, cand := range snaps {
		d, err := snapfile.Read(p.fs, filepath.Join(p.dir, cand.name))
		if err == nil {
			chosen = d
			rep.Snapshot = cand.name
			break
		}
		var fe *snapfile.FormatError
		if errors.As(err, &fe) {
			toQuarantine = append(toQuarantine, cand.name)
			continue
		}
		return nil, fmt.Errorf("serve: read snapshot %s: %w", cand.name, err)
	}
	if chosen == nil {
		if len(snaps) == 0 {
			if len(walsByBase) > 0 {
				return nil, &RecoveryError{Dir: p.dir, Msg: "WAL files present but no snapshot to replay them onto"}
			}
			return rep, nil // fresh directory
		}
		// Quarantine eagerly: there is no state to protect, and the typed
		// error should point at the renamed evidence.
		var q []string
		for _, n := range toQuarantine {
			if to := p.quarantine(n); to != "" {
				q = append(q, to)
			}
		}
		return nil, &RecoveryError{Dir: p.dir, Quarantined: q, Msg: fmt.Sprintf("all %d snapshots unreadable", len(snaps))}
	}

	// Phase 1b (read-only): the valid record prefix of the WAL chain.
	var pending []walRecord
	cur := chosen.Generation
	var bases []uint64
	for b := range walsByBase {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, b := range bases {
		if b < chosen.Generation {
			continue // superseded by the snapshot; prune deals with it
		}
		name := walsByBase[b]
		if b > cur {
			// The swap that would bridge this gap (its checkpoint) is gone
			// — likely quarantined above. Anything beyond is unreachable.
			rep.Truncated += countWALRecords(p.fs, filepath.Join(p.dir, name))
			toQuarantine = append(toQuarantine, name)
			continue
		}
		_, recs, werr := readWAL(p.fs, filepath.Join(p.dir, name))
		if werr != nil {
			var we *WALError
			if !errors.As(werr, &we) {
				return nil, fmt.Errorf("serve: read wal %s: %w", name, werr)
			}
		}
		gap := false
		for _, rec := range recs {
			switch {
			case rec.Gen <= cur:
				// Re-logged or pre-checkpoint record; already captured.
			case rec.Gen == cur+1 && !gap:
				pending = append(pending, rec)
				cur = rec.Gen
			default:
				// Generation gap inside one file (or a record beyond one):
				// corrupt bookkeeping, everything from the gap on is dropped.
				gap = true
				rep.Truncated++
			}
		}
		if werr != nil || gap {
			if werr != nil {
				rep.Truncated++ // the torn/corrupt record itself
			}
			toQuarantine = append(toQuarantine, name)
			break // nothing after a corrupt tail or gap can connect
		}
	}

	// Phase 2: install in memory, replaying through the normal swap and
	// delta paths with the persistence hooks suppressed. Generation
	// numbering resumes exactly where the crashed process stopped.
	p.suppress = true
	s.gen.Store(chosen.Generation - 1)
	if _, err := s.loadLocked(chosen.Graph, chosen.Pred, chosen.Rules); err != nil {
		p.suppress = false
		s.gen.Store(0)
		return nil, fmt.Errorf("serve: rebuild snapshot from %s: %w", rep.Snapshot, err)
	}
	for _, rec := range pending {
		if _, err := s.applyDeltaLocked(rec.Req); err != nil {
			p.suppress = false
			return nil, fmt.Errorf("serve: replay wal record for generation %d: %w", rec.Gen, err)
		}
		rep.Replayed++
	}
	p.suppress = false
	p.nSnapLoads.Add(1)
	p.nWalReplayed.Add(int64(rep.Replayed))
	p.nWalTruncated.Add(int64(rep.Truncated))

	// Phase 3: make the recovered state durable before touching any old
	// file, so a crash during recovery leaves the disk no worse. One
	// exception: a quarantine candidate whose name the checkpoint is about
	// to claim (a corrupt snap-G when replay climbed back to G, or a torn
	// WAL that yielded zero records) is renamed first — otherwise the fresh
	// file would overwrite the evidence and phase 4 would rename the fresh
	// file away. Such a candidate contributed nothing to the recovered
	// state, so a crash between its rename and the checkpoint loses nothing.
	ckptSnap, ckptWAL := p.snapName(s.gen.Load()), p.walName(s.gen.Load())
	deferred := toQuarantine[:0]
	for _, n := range toQuarantine {
		if n == ckptSnap || n == ckptWAL {
			if to := p.quarantine(n); to != "" {
				rep.Quarantined = append(rep.Quarantined, to)
			}
		} else {
			deferred = append(deferred, n)
		}
	}
	toQuarantine = deferred
	if err := p.checkpoint(s.snap.Load()); err != nil {
		return nil, fmt.Errorf("serve: post-recovery checkpoint: %w", err)
	}

	// Phase 4: quarantine evidence, prune leftovers.
	for _, n := range toQuarantine {
		if to := p.quarantine(n); to != "" {
			rep.Quarantined = append(rep.Quarantined, to)
		}
	}
	p.prune(s.gen.Load())

	rep.Recovered = true
	rep.Generation = s.gen.Load()
	return rep, nil
}

// countWALRecords reports how many well-formed records a WAL file holds,
// for truncation accounting of files recovery cannot reach.
func countWALRecords(fs diskfault.FS, path string) int {
	_, recs, _ := readWAL(fs, path)
	return len(recs)
}
