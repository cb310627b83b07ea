// The crash-recovery differential oracle: a server persisting through a
// fault-injecting filesystem, killed at every WAL write with varying torn
// tails — and with random bit flips in the durable log — must recover to a
// state whose identify responses are byte-identical to a never-crashed
// server holding exactly the acknowledged batches, and whose graph mines
// the same Σ. Acknowledged batches are never lost (SyncAlways), unacked or
// mangled tails are truncated with the evidence quarantined — no silent
// loss, no partially applied generation, and restart needs no re-ingest.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpar/internal/diskfault"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

func TestCrashRecoveryOracle(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		n := n
		t.Run(fmt.Sprintf("%d-workers", n), func(t *testing.T) {
			t.Parallel()
			syms := graph.NewSymbols()
			g := gen.Pokec(syms, gen.DefaultPokec(120, 1))
			pred, rules := supportedRules(t, g, 3)

			// The op vocabulary, read back from the base graph.
			nodeSet, edgeSet := map[string]bool{}, map[string]bool{}
			for v := 0; v < g.NumNodes(); v++ {
				nodeSet[g.LabelName(graph.NodeID(v))] = true
				for _, e := range g.Out(graph.NodeID(v)) {
					edgeSet[syms.Name(e.Label)] = true
				}
			}
			var nodeNames, edgeNames []string
			for name := range nodeSet {
				nodeNames = append(nodeNames, name)
			}
			for name := range edgeSet {
				edgeNames = append(edgeNames, name)
			}

			// One deterministic batch sequence, with the logical graph after
			// every prefix pinned up front.
			const B = 5
			rng := rand.New(rand.NewSource(int64(11 * n)))
			model := newWireModel(g)
			batches := make([][]DeltaOpSpec, B)
			prefixes := make([]*graph.Graph, B+1)
			prefixes[0] = model.rebuild()
			for i := range batches {
				batches[i] = model.randBatch(rng, nodeNames, edgeNames)
				prefixes[i+1] = model.rebuild()
			}

			// refBytes(k) is the identify answer of a never-crashed server
			// holding exactly the first k batches.
			refCache := map[int][]byte{}
			refBytes := func(k int) []byte {
				t.Helper()
				if b, ok := refCache[k]; ok {
					return b
				}
				ref := New(Config{Workers: n})
				if err := ref.LoadSnapshot(prefixes[k], pred, rules); err != nil {
					t.Fatalf("reference LoadSnapshot(%d): %v", k, err)
				}
				b := identifyBytes(t, ref.Handler())
				refCache[k] = b
				return b
			}

			// drive runs a fresh persisted server through the sequence until
			// the filesystem kills it (or to the end), hard-crashes, reboots,
			// recovers, and returns the recovered server + report + how many
			// batches were acknowledged.
			drive := func(fault *diskfault.Fault, corrupt func(m *diskfault.MemFS)) (*Server, *RecoveryReport, int) {
				t.Helper()
				m := diskfault.NewMemFS()
				live := New(Config{Workers: n})
				if err := live.EnablePersistence(PersistOptions{Dir: "d", FS: m}); err != nil {
					t.Fatal(err)
				}
				if err := live.LoadSnapshot(g, pred, rules); err != nil {
					t.Fatal(err)
				}
				if fault != nil {
					m.Inject(*fault)
				}
				acked := 0
				for _, batch := range batches {
					if _, err := live.ApplyDelta(DeltaRequest{Ops: batch}); err != nil {
						if !errors.Is(err, diskfault.ErrCrashed) && !errors.Is(err, diskfault.ErrInjected) {
							t.Fatalf("ApplyDelta died unexpectedly: %v", err)
						}
						break
					}
					acked++
				}
				if !m.Crashed() {
					m.Crash() // the process dies with no warning either way
				}
				m.Reboot()
				if corrupt != nil {
					corrupt(m)
				}
				rec := New(Config{Workers: n})
				if err := rec.EnablePersistence(PersistOptions{Dir: "d", FS: m}); err != nil {
					t.Fatal(err)
				}
				rep, err := rec.Recover()
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				return rec, rep, acked
			}

			// check: the recovered server serves exactly the first k batches.
			check := func(label string, rec *Server, rep *RecoveryReport, k int) {
				t.Helper()
				if !rep.Recovered {
					t.Fatalf("%s: not recovered: %+v", label, rep)
				}
				if rec.Generation() != uint64(1+k) {
					t.Fatalf("%s: generation %d, want %d", label, rec.Generation(), 1+k)
				}
				if got := identifyBytes(t, rec.Handler()); !bytes.Equal(got, refBytes(k)) {
					t.Fatalf("%s: identify diverged from never-crashed server at %d batches", label, k)
				}
			}

			// Kill at every WAL append, with the surviving tail clean, torn
			// mid-frame-header, and torn mid-payload.
			variants := []struct {
				name             string
				short, keep      int
				expectQuarantine bool
			}{
				{"clean-tail", -1, 0, false},
				{"torn-header", 5, 5, true},
				{"torn-payload", 0, 30, true},
			}
			for kill := 0; kill < B; kill++ {
				for _, v := range variants {
					label := fmt.Sprintf("kill@%d/%s", kill, v.name)
					// The fault arms after the load checkpoint (header already
					// written), so Countdown skips exactly the appends of the
					// batches that should be acknowledged.
					rec, rep, acked := drive(&diskfault.Fault{
						Op: diskfault.OpWrite, Path: "wal-", Countdown: kill,
						ShortWrite: v.short, KeepTail: v.keep, Kill: true,
					}, nil)
					if acked != kill {
						t.Fatalf("%s: %d batches acked, want %d", label, acked, kill)
					}
					check(label, rec, rep, kill)
					if v.expectQuarantine && (rep.Truncated < 1 || len(rep.Quarantined) == 0) {
						t.Fatalf("%s: torn tail not surfaced: %+v", label, rep)
					}
					if !v.expectQuarantine && (rep.Truncated != 0 || len(rep.Quarantined) != 0) {
						t.Fatalf("%s: clean tail misreported: %+v", label, rep)
					}
				}
			}

			// The full sequence survives a crash with zero loss, and the
			// recovered graph mines the same Σ as the reference graph.
			rec, rep, acked := drive(nil, nil)
			if acked != B {
				t.Fatalf("full run: %d acked", acked)
			}
			check("full-run", rec, rep, B)
			opts := mine.Options{
				K: 3, Sigma: 1, D: 2, MaxEdges: 2, N: n, MaxCandidatesPerRound: 20,
			}.WithOptimizations()
			snap := rec.Snapshot()
			recSigma := sigmaOf(mine.DMine(snap.G, snap.Pred, opts))
			refSigma := sigmaOf(mine.DMine(prefixes[B], pred, opts))
			if !reflect.DeepEqual(recSigma, refSigma) {
				t.Fatalf("Σ diverged after recovery\nrec: %+v\nref: %+v", recSigma, refSigma)
			}

			// Bit flips in the durable log: recovery serves whatever prefix
			// the checksums accept and quarantines the rest — never panics,
			// never serves a mangled generation.
			walName := "wal-0000000000000001.wal"
			for trial := 0; trial < 3; trial++ {
				var off int64
				rec, rep, _ := drive(nil, func(m *diskfault.MemFS) {
					size := m.DurableLen(filepath.Join("d", walName))
					if size <= walHeaderLen {
						t.Fatalf("wal too small to corrupt: %d", size)
					}
					off = walHeaderLen + rng.Int63n(size-walHeaderLen)
					if !m.CorruptDurable(filepath.Join("d", walName), off) {
						t.Fatal("corrupt failed")
					}
				})
				label := fmt.Sprintf("bitflip@%d", off)
				if rep.Replayed > B {
					t.Fatalf("%s: replayed %d of %d batches", label, rep.Replayed, B)
				}
				check(label, rec, rep, rep.Replayed)
				if rep.Replayed < B {
					if rep.Truncated < 1 || len(rep.Quarantined) == 0 {
						t.Fatalf("%s: corruption not surfaced: %+v", label, rep)
					}
					for _, q := range rep.Quarantined {
						if !strings.HasSuffix(q, ".corrupt") && !strings.Contains(q, ".corrupt.") {
							t.Fatalf("%s: bad quarantine name %q", label, q)
						}
					}
				}
			}
		})
	}
}
