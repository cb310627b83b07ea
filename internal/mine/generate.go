package mine

import (
	"slices"

	"gpar/internal/core"
	"gpar/internal/eip"
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
// (frontier, extension) order, generate concatenates by worker id, and
// the sharded assembly re-establishes one deterministic group order in
// its reduce.

// extAcc accumulates one candidate extension's local evidence at a worker.
// Accumulators are pooled on the worker and recycled every parent.
type extAcc struct {
	ext     pattern.Extension
	centers []graph.NodeID // owned centers supporting the extended Q
	// lastVx deduplicates center appends: a center's embeddings are
	// enumerated consecutively, so "already counted vx" is just "the last
	// center appended is vx" — no per-accumulator seen map.
	lastVx graph.NodeID
}

// localMine extends every frontier rule at this worker and verifies local
// support, leaving the round's messages in w.msgs (views into the worker's
// message lanes). Candidate rules are materialized into per-worker scratch
// patterns — only the coordinator materializes one heap rule per distinct
// candidate, at assembly. The frontier is the coordinator's, read-only: a
// worker reads each rule's id and antecedent.
func (w *worker) localMine(frontier []*Mined) {
	out := w.msgs[:0]
	w.ar.resetMessages()
	if w.qScratch == nil {
		w.qScratch = pattern.New(w.g.Symbols())
		w.prScratch = pattern.New(w.g.Symbols())
	}
	for _, parent := range frontier {
		// The frontier is ascending (setFrontierCenters), so every
		// accumulator's center list is built already sorted.
		centers := w.centersFor[parent.id]
		if len(centers) == 0 {
			continue
		}
		pq := parent.Rule.Q
		for _, f := range w.discover(pq, centers) {
			// Materialize the candidate into recycled scratch; the scratch
			// is dead once the matcher below releases.
			q := pq.ApplyInto(w.qScratch, f.ext)
			if q == nil {
				continue
			}
			child := core.Rule{Q: q, Pred: w.pred}
			pr := child.PRInto(w.prScratch)
			// Admissibility: q(x,y) ∉ Q and the radius bound r(PR, x) ≤ d.
			if q.Y != pattern.NoNode && q.HasEdge(q.X, q.Y, w.pred.EdgeLabel) {
				continue
			}
			w.distBuf = pr.DistancesInto(w.distBuf, pr.X)
			if rad := pattern.Radius(w.distBuf); rad < 0 || rad > w.d {
				continue
			}

			msg := message{parent: parent.id, ext: f.ext}
			mq, mr, mqb := w.ar.q.mark(), w.ar.r.mark(), w.ar.qqb.mark()
			// Every center of f matches Q. PR's matcher, reused across them,
			// is built only where Q cannot decide PR (core.Rule.PRAtPq).
			same, never := child.PRAtPq(w.ny)
			var prm *match.Matcher
			if !same && !never {
				prm = match.NewMatcher(pr, w.g, match.Options{})
			}
			for _, c := range f.centers {
				w.ar.q.push(c)
				switch w.class[c] {
				case eip.Pqbar:
					w.ar.qqb.push(c)
				case eip.Pq:
					w.ops++
					if same || prm != nil && prm.HasMatchAt(c) {
						w.ar.r.push(c)
					}
				}
			}
			if prm != nil {
				prm.Release()
			}
			msg.qCenters = w.ar.q.take(mq)
			msg.rSet = w.ar.r.take(mr)
			msg.qqbCenters = w.ar.qqb.take(mqb)
			out = append(out, msg)
		}
	}
	w.msgs = out
}

// discover returns discoverExtensions' list, read-only, from the memo if it
// has it, plus the AsY twin of each new-node extension with y's label when
// q has no y: same centers, and sorted right after it.
func (w *worker) discover(q *pattern.Pattern, centers []graph.NodeID) []extAcc {
	h := w.discKey(q, centers)
	var exts []*extAcc
	if e := w.disc.lookup(w.key, h); e != nil {
		exts, w.ops, w.capped = e.exts, w.ops+e.ops, w.capped+e.capped
	} else {
		ops, capped := w.ops, w.capped
		exts = w.discoverExtensions(q, centers)
		w.disc.store(w.key, h, exts, w.ops-ops, w.capped-capped)
	}
	clear(w.exts) // hold no views past this call's list
	out := w.exts[:0]
	for _, f := range exts {
		out = append(out, *f)
		if q.Y == pattern.NoNode && f.ext.Close == pattern.NoNode && f.ext.NewLabel == w.pred.YLabel {
			out = append(out, *f)
			out[len(out)-1].ext.AsY = true
		}
	}
	w.exts = out
	return out
}

// discoverExtensions enumerates, for each owned center still matching the
// parent antecedent, the single-edge extensions realized by actual data
// edges around its embeddings ("expand Q by including a new edge", Section
// 4.2). Injectivity and the radius bound are respected; the supporting
// centers of each extension are collected exactly (up to EmbedCap embeddings
// per center; w.capped counts the centers that reached it). Embeddings are
// enumerated canonically (match.Options.Canonical), so EmbedCap truncation
// sees the same embeddings whichever worker owns the center.
//
// The adjacency of an embedded data node is read once per parent, not once
// per embedding: the first embedding that touches a (data node, direction)
// walks it into a neighbour-class summary (summarize); every embedding, of
// this center or the next, reads the summary instead (extendAt).
//
// The returned accumulators are sorted by Extension.Compare and owned by
// the worker: they are recycled on the next call.
func (w *worker) discoverExtensions(q *pattern.Pattern, centers []graph.NodeID) []*extAcc {
	w.distXBuf = q.DistancesInto(w.distXBuf, q.X)
	distX := w.distXBuf
	w.resetAccs()
	w.resetSummaries(w.g.NumNodes())
	// One pooled matcher per parent, reused across all centers.
	qm := match.NewMatcher(q, w.g, match.Options{MaxMatches: w.embedCap, Canonical: true})
	for _, vx := range centers {
		w.ops++
		seen := qm.EnumerateAnchored(vx, func(asgn []graph.NodeID) bool {
			for u := range asgn {
				// The new node would sit at distance distX[u]+1 from x;
				// enforce the antecedent radius bound r(Q, x) <= d.
				canGrow := distX[u] >= 0 && distX[u]+1 <= w.d
				w.extendAt(q, vx, asgn, u, true, canGrow)
				w.extendAt(q, vx, asgn, u, false, canGrow)
			}
			return true
		})
		w.ops += int64(seen)
		if seen == w.embedCap {
			w.capped++
		}
	}
	qm.Release()
	// Deterministic order of candidate emission.
	slices.SortFunc(w.accList, func(a, b *extAcc) int { return a.ext.Compare(b.ext) })
	return w.accList
}

// nbrClass is one neighbour class of a data node in one direction: the
// neighbours reached over edge label edge that carry node label node, and
// how many there are. A class is exactly what a new-node extension is made
// of, next to the pattern node and direction the caller fixes; acc caches
// that extension's accumulator (for pattern node acc.ext.Src), so the next
// center through this node skips extCode and the map.
type nbrClass struct {
	edge, node graph.Label
	count      int32
	acc        *extAcc
}

// nbrSummary is the per-parent scratch slot of one (data node, direction):
// its classes, w.classes[lo:hi], valid iff epoch == w.nbrEpoch, whether the
// node has a self-loop, and the per-center memo — every new-node class of
// (doneU ↦ this node) has been added for center doneVx.
type nbrSummary struct {
	epoch  uint32
	lo, hi int32
	doneVx graph.NodeID
	doneU  int32
	self   bool
}

// resetSummaries invalidates every summary in O(1) by bumping the epoch:
// a new parent, or a new graph for a pooled worker, starts with none.
func (w *worker) resetSummaries(n int) {
	if len(w.nbr) < 2*n {
		w.nbr = make([]nbrSummary, 2*n)
		w.nbrEpoch = 0
	}
	w.nbrEpoch++
	if w.nbrEpoch == 0 { // uint32 wraparound: rewind the stamps
		clear(w.nbr)
		w.nbrEpoch = 1
	}
	w.classes = w.classes[:0]
}

// summarize walks adj — the (Label, To)-sorted adjacency of data node v in
// one direction — into its neighbour classes, appended to w.classes. A
// class's members sit inside one edge-label range, so a neighbour's class
// is the previous neighbour's, or found through labAt among the classes the
// current range has opened (labAt[l] is label l's latest class; an index
// below seg is stale).
func (w *worker) summarize(s *nbrSummary, v graph.NodeID, adj []graph.Edge) {
	g, cls, labAt := w.g, w.classes, w.labAt
	s.epoch, s.lo, s.doneVx, s.self = w.nbrEpoch, int32(len(cls)), -1, false
	seg, k, edge := len(cls), -1, graph.NoLabel
	for _, e := range adj {
		if e.Label != edge {
			seg, edge = len(cls), e.Label
		}
		if e.To == v {
			s.self = true
		}
		l := g.Label(e.To)
		if k < seg || cls[k].node != l {
			if int(l) >= len(labAt) {
				labAt = append(labAt, make([]int32, int(l)+1-len(labAt))...)
			}
			k = int(labAt[l])
			if k < seg || k >= len(cls) || cls[k].node != l {
				k = len(cls)
				labAt[l] = int32(k)
				// Field by field: appending a composite literal goes through
				// a stack temporary whose reload stalls store forwarding.
				cls = slices.Grow(cls, 1)[:k+1]
				c := &cls[k]
				c.edge, c.node, c.count, c.acc = edge, l, 0, nil
			}
		}
		cls[k].count++
	}
	w.classes, w.labAt = cls, labAt
	s.hi = int32(len(cls))
}

// extendAt records, for center vx, the extensions the embedding asgn
// realizes at dv = asgn[u] in one direction, from dv's neighbour classes:
//
//   - Closing edges: an embedded node t with a class's label (dv itself only
//     if it has a self-loop) is a member of the class iff an edge of Q, or
//     one a binary search finds, joins dv and t; a found edge is a Close
//     extension.
//   - New nodes: a class is realized iff its count exceeds its embedded
//     members. A class whose every member is embedded yields nothing.
//   - Per-center memo: once (u, dv, direction) has added every one of its
//     classes for vx, later embeddings of vx skip the new-node part. Those
//     add calls would be no-ops: each extension's lastVx already holds
//     vx, because a center's embeddings are enumerated consecutively.
func (w *worker) extendAt(q *pattern.Pattern, vx graph.NodeID, asgn []graph.NodeID, u int, outgoing, canGrow bool) {
	g, dv := w.g, asgn[u]
	s, adj := &w.nbr[2*int(dv)], g.In(dv)
	if outgoing {
		s, adj = &w.nbr[2*int(dv)+1], g.Out(dv)
	}
	if s.epoch != w.nbrEpoch {
		w.summarize(s, dv, adj)
	}
	grow := canGrow && (s.doneVx != vx || s.doneU != int32(u))
	complete := true
	cls := w.classes[s.lo:s.hi]
	for i := range cls {
		c := &cls[i]
		var embedded int32
		for u2, t := range asgn {
			if g.Label(t) != c.node || u2 == u && !s.self {
				continue
			}
			from, to := u, u2
			if !outgoing {
				from, to = u2, u
			}
			// An edge of Q is an edge of the data: no search needed.
			if q.HasEdge(from, to, c.edge) {
				embedded++
			} else if g.HasEdge(asgn[from], asgn[to], c.edge) {
				embedded++
				w.accFor(pattern.Extension{Src: u, Outgoing: outgoing, EdgeLabel: c.edge, Close: u2}).add(vx)
			}
		}
		if !grow {
			continue
		}
		if c.count <= embedded {
			complete = false
			continue
		}
		ext := pattern.Extension{Src: u, Outgoing: outgoing, EdgeLabel: c.edge, NewLabel: c.node, Close: pattern.NoNode}
		if c.acc == nil || c.acc.ext.Src != u {
			c.acc = w.accFor(ext)
		}
		c.acc.add(vx)
	}
	if grow && complete {
		s.doneVx, s.doneU = vx, int32(u)
	}
}

// accFor returns ext's accumulator, registering a fresh one on first sight.
func (w *worker) accFor(ext pattern.Extension) *extAcc {
	code := w.extCode(ext)
	if acc := w.accs[code]; acc != nil {
		return acc
	}
	return w.newAcc(code, ext)
}

// add counts center vx, once.
func (acc *extAcc) add(vx graph.NodeID) {
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
