package mine

import (
	"slices"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/match"
	"gpar/internal/pattern"
)

// This file is the parallel GPAR-generation superstep (procedure localMine
// of Fig. 4): every worker extends each frontier rule by one edge discovered
// in the data around its owned centers, verifies local supports, and emits
// one message per candidate extension.
//
// No coordinator-side sort is needed: each worker emits in deterministic
// (frontier, extension) order, the engines concatenate by worker id, and
// the sharded assembly re-establishes a global deterministic group order in
// its reduce.

// extAcc accumulates one candidate extension's local evidence at a worker.
// Accumulators are pooled on the worker and recycled every parent.
type extAcc struct {
	ext     pattern.Extension
	centers []graph.NodeID // local owned centers supporting the extended Q
	// lastVx deduplicates center appends: a center's embeddings are
	// enumerated consecutively, so "already counted vx" is just "the last
	// center appended is vx" — no per-accumulator seen map.
	lastVx graph.NodeID
}

// localMine extends every frontier rule at this worker and verifies local
// support, leaving the round's messages in w.msgs (global node IDs, views
// into the worker's message lanes). Candidate rules are materialized into
// per-worker scratch patterns — only the coordinator materializes one
// heap rule per distinct candidate, at assembly.
func (w *worker) localMine(lp localParams, frontier []localRule) {
	out := w.msgs[:0]
	w.ar.resetMessages()
	if w.qScratch == nil {
		w.qScratch = pattern.New(lp.syms)
		w.prScratch = pattern.New(lp.syms)
	}
	opts := match.Options{}
	for _, parent := range frontier {
		centers := w.centersFor[parent.id]
		if len(centers) == 0 {
			continue
		}
		// Keep the frontier sorted ascending once, so every accumulator's
		// center list is built already sorted.
		slices.Sort(centers)
		accs := w.discoverExtensions(lp, parent.q, centers, opts)
		for _, acc := range accs {
			// Materialize the candidate into recycled scratch; the scratch
			// is dead once the matcher below releases.
			q := parent.q.ApplyInto(w.qScratch, acc.ext)
			if q == nil {
				continue
			}
			child := core.Rule{Q: q, Pred: lp.pred}
			pr := child.PRInto(w.prScratch)
			// Admissibility: q(x,y) ∉ Q and the radius bound r(PR, x) ≤ d.
			if q.Y != pattern.NoNode && q.HasEdge(q.X, q.Y, lp.pred.EdgeLabel) {
				continue
			}
			w.distBuf = pr.DistancesInto(w.distBuf, pr.X)
			if rad := radiusFrom(w.distBuf); rad < 0 || rad > lp.d {
				continue
			}

			msg := message{worker: w.id, parent: parent.id, ext: acc.ext}
			mq, mr, mqb := w.ar.q.mark(), w.ar.r.mark(), w.ar.qqb.mark()
			// One pooled matcher per child rule, reused across all centers.
			prm := match.NewMatcher(pr, w.frag.G, opts)
			for _, c := range acc.centers {
				gv := w.frag.Global(c)
				w.ar.q.push(gv)
				if w.pqbar[c] {
					w.ar.qqb.push(gv)
				}
				if w.pq[c] {
					w.ops++
					if prm.HasMatchAt(c) {
						w.ar.r.push(gv)
					}
				}
			}
			prm.Release()
			msg.qCenters = w.ar.q.take(mq)
			msg.rSet = w.ar.r.take(mr)
			msg.qqbCenters = w.ar.qqb.take(mqb)
			out = append(out, msg)
		}
	}
	w.msgs = out
}

// radiusFrom reduces a DistancesInto result to the pattern radius, with the
// RadiusAt convention: -1 when some node is unreachable.
func radiusFrom(dist []int) int {
	r := 0
	for _, d := range dist {
		if d < 0 {
			return -1
		}
		if d > r {
			r = d
		}
	}
	return r
}

// discoverExtensions enumerates, for each owned center still matching the
// parent antecedent, the single-edge extensions realized by actual data
// edges around its embeddings ("expand Q by including a new edge", Section
// 4.2). Injectivity and the radius bound are respected; the supporting
// centers of each extension are collected exactly (up to EmbedCap embeddings
// per center; w.capped counts the centers that reached it). Embeddings are
// enumerated canonically (match.Options.
// Canonical; local IDs ascend with global IDs on the shared graph and on a
// wire fragment alike), so EmbedCap truncation sees the same embeddings
// whichever worker owns the center.
//
// The returned accumulators are sorted by Extension.Compare and owned by
// the worker: they are recycled on the next call.
func (w *worker) discoverExtensions(lp localParams, q *pattern.Pattern, centers []graph.NodeID, opts match.Options) []*extAcc {
	w.distXBuf = q.DistancesInto(w.distXBuf, q.X)
	distX := w.distXBuf
	w.resetAccs()
	g := w.frag.G
	if n := g.NumNodes(); len(w.invEpoch) < n {
		w.inv = make([]int32, n)
		w.invEpoch = make([]uint32, n)
		w.epoch = 0
	}
	opts.MaxMatches = lp.embedCap
	opts.Canonical = true
	// One pooled matcher per parent, reused across all centers.
	qm := match.NewMatcher(q, g, opts)
	for _, vx := range centers {
		w.ops++
		seen := qm.EnumerateAnchored(vx, func(asgn []graph.NodeID) bool {
			// Stamp the inverse embedding into the epoch scratch: one
			// epoch bump invalidates the previous embedding's entries.
			w.epoch++
			if w.epoch == 0 { // uint32 wraparound: rewind the stamps
				clear(w.invEpoch)
				w.epoch = 1
			}
			for u, dv := range asgn {
				w.inv[dv] = int32(u)
				w.invEpoch[dv] = w.epoch
			}
			for u, dv := range asgn {
				// The new node would sit at distance distX[u]+1 from x;
				// enforce the antecedent radius bound r(Q, x) <= d.
				canGrow := distX[u] >= 0 && distX[u]+1 <= lp.d
				w.scanAdjacency(lp, q, vx, u, g.Out(dv), true, canGrow)
				w.scanAdjacency(lp, q, vx, u, g.In(dv), false, canGrow)
			}
			return true
		})
		w.ops += int64(seen)
		if seen == lp.embedCap {
			w.capped++
		}
	}
	qm.Release()
	// Deterministic order of candidate emission.
	slices.SortFunc(w.accList, func(a, b *extAcc) int { return a.ext.Compare(b.ext) })
	return w.accList
}

// scanAdjacency records, for center vx, the extensions realized by adj: the
// outgoing or incoming adjacency of the data node that the current embedding
// (stamped into w.inv at w.epoch) assigns to pattern node u. An edge to
// another embedded node is a closing extension unless Q already has it. The
// other neighbors offer a new node, and they are taken as neighbor-class
// runs: consecutive neighbors with the same edge label and the same node
// label realize the same extension, and addExt ignores a repeat for the
// center it saw last, so only the first edge of a run touches the
// accumulators. Adjacency is (Label, To)-sorted, so on a hub most of the
// scan is one run; the order decides only how much collapses, never what is
// found.
func (w *worker) scanAdjacency(lp localParams, q *pattern.Pattern, vx graph.NodeID, u int, adj []graph.Edge, outgoing, canGrow bool) {
	g, epoch := w.frag.G, w.epoch
	runEdge, runNode := graph.NoLabel, graph.NoLabel
	for _, e := range adj {
		if w.invEpoch[e.To] == epoch {
			u2 := int(w.inv[e.To])
			from, to := u, u2
			if !outgoing {
				from, to = u2, u
			}
			if !q.HasEdge(from, to, e.Label) {
				w.addExt(vx, pattern.Extension{Src: u, Outgoing: outgoing, EdgeLabel: e.Label, Close: u2})
			}
			continue
		}
		if !canGrow {
			continue
		}
		l := g.Label(e.To)
		if e.Label == runEdge && l == runNode {
			continue
		}
		runEdge, runNode = e.Label, l
		ext := pattern.Extension{Src: u, Outgoing: outgoing, EdgeLabel: e.Label, NewLabel: l, Close: pattern.NoNode}
		w.addExt(vx, ext)
		if q.Y == pattern.NoNode && l == lp.pred.YLabel {
			ext.AsY = true
			w.addExt(vx, ext)
		}
	}
}

// addExt counts center vx as supporting ext, once.
func (w *worker) addExt(vx graph.NodeID, ext pattern.Extension) {
	code := w.extCode(ext)
	acc := w.accs[code]
	if acc == nil {
		acc = w.newAcc(code, ext)
	}
	if acc.lastVx != vx {
		acc.lastVx = vx
		acc.centers = append(acc.centers, vx)
	}
}

// resetAccs recycles the previous call's accumulators into the pool.
func (w *worker) resetAccs() {
	if w.accs == nil {
		w.accs = make(map[uint64]*extAcc)
		return
	}
	clear(w.accs)
	w.accPool = append(w.accPool, w.accList...)
	w.accList = w.accList[:0]
}

// newAcc takes an accumulator from the pool (or allocates one), registers
// it under the packed code and returns it.
func (w *worker) newAcc(code uint64, ext pattern.Extension) *extAcc {
	var acc *extAcc
	if n := len(w.accPool); n > 0 {
		acc = w.accPool[n-1]
		w.accPool = w.accPool[:n-1]
		acc.centers = acc.centers[:0]
	} else {
		acc = &extAcc{}
	}
	acc.ext = ext
	acc.lastVx = -1
	w.accs[code] = acc
	w.accList = append(w.accList, acc)
	return acc
}
