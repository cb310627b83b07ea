package mine

import (
	"cmp"
	"slices"
	"sync"

	"gpar/internal/core"
	"gpar/internal/diversify"
	"gpar/internal/graph"
	"gpar/internal/pattern"
)

// group accumulates the cross-worker evidence of one candidate rule. The
// sets are sorted deduplicated node IDs carved from the owning
// shard's arena; rule points at the shard's pooled materialization. A group
// lives exactly one assemble call — anything that survives into Σ is cloned
// out in step 3.
type group struct {
	key    groupKey
	rule   *core.Rule
	msgIdx []int32        // message indices contributing to this group
	q      []graph.NodeID // Q(x,·) over owned frontier centers
	r      []graph.NodeID // PR(x,·)
	qqb    []graph.NodeID // Q(x,·) ∩ q̄
	code   []byte         // Q's canonical code, a view of the shard's buffer (nil for DMineNo)
}

// asmScratch is one assembly shard's recycled state: the per-round group
// map and list, a pool of retired group structs, pooled rule
// materializations (pattern storage reused round over round), the arena
// backing every group's three union lanes, and the buffer the groups'
// canonical codes are appended to. Shard s is owned by worker s, so the
// memory survives exactly as long as the worker does — in the worker pool,
// across runs.
type asmScratch struct {
	gm    map[groupKey]*group
	order []*group
	pool  []*group
	rules []*core.Rule
	arena nodeArena
	codes []byte
}

// assemble is the coordinator's barrier-synchronization phase (lines 4-7 of
// Fig. 4): merge the workers' messages, group automorphic GPARs by canonical
// code, compute graph-wide supports and confidence, filter by σ and
// triviality, and register survivors in Σ.
//
// Step 1 (structural merge by (parent, extension)) and the canonical codes
// are computed in parallel shards; steps 2-4 run as one
// deterministic sequential reduce over the shard results, re-sorted by
// group key — so the output is byte-identical for any worker count.
func (m *miner) assemble(frontier []*Mined, msgs []message) []*Mined {
	order := m.mergeShards(frontier, msgs)
	m.res.Generated += len(order)
	m.mergeArena.reset()

	// Step 2: group automorphic GPARs across generation paths and against
	// rules already in Σ. The first group of a class in key order is its
	// representative.
	clear(m.reps)
	var uniq []*group
	for _, gr := range order {
		rep, inSigma := m.lookup(gr, uniq)
		if rep != nil {
			// Same rule: merge evidence into the representative.
			rep.q = m.mergeArena.unionInto(rep.q, gr.q)
			rep.r = m.mergeArena.unionInto(rep.r, gr.r)
			rep.qqb = m.mergeArena.unionInto(rep.qqb, gr.qqb)
			continue
		}
		if !inSigma {
			m.reps[string(gr.code)] = gr
			uniq = append(uniq, gr)
		}
	}

	// Step 3: graph-wide stats, σ and triviality filters. Survivors escape
	// the round (into Σ and ultimately the Result), so their rule and sets
	// are cloned out of the round-recycled storage here.
	var deltaE []*Mined
	for _, gr := range uniq {
		stats := core.Stats{
			SuppR:    len(gr.r),
			SuppQ:    len(gr.q),
			SuppQqb:  len(gr.qqb),
			SuppQ1:   m.suppQ1,
			SuppQbar: m.suppQbr,
		}
		if stats.SuppR < m.opts.Sigma {
			continue
		}
		if trivial, _ := stats.Trivial(); trivial {
			// "if an extension leads to supp(Qq̄) = 0, Sc removes R" (§4.2).
			continue
		}
		id := m.newRuleID()
		set := slices.Clone(gr.r)
		mined := &Mined{
			Rule:     &core.Rule{Q: gr.rule.Q.Clone(), Pred: gr.rule.Pred},
			Stats:    stats,
			Conf:     stats.Conf(),
			Set:      set,
			id:       id,
			bits:     diversify.MakeBits(set),
			qCenters: slices.Clone(gr.q),
		}
		deltaE = append(deltaE, mined)
		m.sigmaCodes[string(gr.code)] = id
	}

	// Step 4: optional per-round cap, keeping the highest-support rules.
	if limit := m.opts.MaxCandidatesPerRound; limit > 0 && len(deltaE) > limit {
		slices.SortStableFunc(deltaE, func(a, b *Mined) int {
			if a.Stats.SuppR != b.Stats.SuppR {
				return cmp.Compare(b.Stats.SuppR, a.Stats.SuppR)
			}
			return cmp.Compare(a.id, b.id)
		})
		deltaE = deltaE[:limit]
	}

	for _, mined := range deltaE {
		m.sigma[mined.id] = mined
	}
	return deltaE
}

// mergeShards is assemble's parallel phase: messages are sharded by group
// key hash, each shard merges its messages by (parent, extension) — the
// same rule produced at different workers, so the sets union directly —
// materializes one rule per group (the workers only emit (parent, ext)
// plus center sets; their scratch patterns stay theirs), and codes its
// groups' patterns. The concatenated result is sorted
// by group key, which erases both the shard assignment and the shard count
// from everything downstream.
func (m *miner) mergeShards(frontier []*Mined, msgs []message) []*group {
	if len(msgs) == 0 {
		return nil
	}
	// Frontier lookup for materializing group rules at the reduce side.
	if m.parents == nil {
		m.parents = make(map[ruleID]*Mined, len(frontier))
	}
	clear(m.parents)
	for _, p := range frontier {
		m.parents[p.id] = p
	}

	nsh := m.ctx.n
	if nsh > len(msgs) {
		nsh = len(msgs)
	}
	if cap(m.shardIdx) < nsh {
		m.shardIdx = make([][]int32, nsh)
	}
	shardMsgs := m.shardIdx[:nsh]
	for s := range shardMsgs {
		shardMsgs[s] = shardMsgs[s][:0]
	}
	for i := range msgs {
		s := int(groupKey{msgs[i].parent, msgs[i].ext}.hash() % uint32(nsh))
		shardMsgs[s] = append(shardMsgs[s], int32(i))
	}
	var wg sync.WaitGroup
	gate := m.opts.Gate
	for s := 0; s < nsh; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if gate != nil {
				gate.acquire()
				defer gate.release()
			}
			m.workers[s].asm.merge(m, msgs, shardMsgs[s])
		}(s)
	}
	wg.Wait()
	all := m.allGroups[:0]
	for s := 0; s < nsh; s++ {
		all = append(all, m.workers[s].asm.order...)
	}
	slices.SortFunc(all, func(a, b *group) int { return a.key.compare(b.key) })
	m.allGroups = all
	return all
}

// merge builds one shard's groups: pass 1 buckets message indices by group
// key; pass 2 materializes each group's rule, builds its three union lanes
// contiguously in the shard arena, and appends its canonical code to the
// shard's code buffer. Everything is recycled from the previous
// round — in steady state the only allocations are map growth on
// first-seen group keys.
func (s *asmScratch) merge(m *miner, msgs []message, idx []int32) {
	s.pool = append(s.pool, s.order...)
	s.order = s.order[:0]
	s.arena.reset()
	s.codes = s.codes[:0]
	if s.gm == nil {
		s.gm = make(map[groupKey]*group)
	}
	clear(s.gm)

	for _, i := range idx {
		msg := &msgs[i]
		k := groupKey{msg.parent, msg.ext}
		gr := s.gm[k]
		if gr == nil {
			gr = s.newGroup(k)
		}
		gr.msgIdx = append(gr.msgIdx, i)
	}

	for gi, gr := range s.order {
		gr.rule = s.materialize(m, gr.key, gi)
		gr.q = s.lane(msgs, gr.msgIdx, msgQ)
		gr.r = s.lane(msgs, gr.msgIdx, msgR)
		gr.qqb = s.lane(msgs, gr.msgIdx, msgQqb)
		if !m.baseline {
			mark := len(s.codes)
			s.codes = gr.rule.Q.AppendCode(s.codes)
			gr.code = s.codes[mark:len(s.codes):len(s.codes)]
		}
	}
}

// Message lane selectors, named (not closures) so lane calls don't allocate.
func msgQ(msg *message) []graph.NodeID   { return msg.qCenters }
func msgR(msg *message) []graph.NodeID   { return msg.rSet }
func msgQqb(msg *message) []graph.NodeID { return msg.qqbCenters }

// lane builds one group's union of one message field: a lone message's
// view, or the runs concatenated in message order in the shard arena. It
// is sorted without duplicates: a group has one message per worker at
// most, each worker's runs ascend inside its chunk of the ID-sorted
// candidates, and generate appends the messages in worker order.
func (s *asmScratch) lane(msgs []message, idx []int32, get func(*message) []graph.NodeID) []graph.NodeID {
	if len(idx) == 1 {
		return get(&msgs[idx[0]])
	}
	mark := s.arena.mark()
	for _, i := range idx {
		s.arena.pushAll(get(&msgs[i]))
	}
	return s.arena.take(mark)
}

// newGroup takes a group from the pool (or allocates one), resets it and
// registers it under the key.
func (s *asmScratch) newGroup(k groupKey) *group {
	var gr *group
	if n := len(s.pool); n > 0 {
		gr = s.pool[n-1]
		s.pool = s.pool[:n-1]
	} else {
		gr = &group{}
	}
	*gr = group{key: k, msgIdx: gr.msgIdx[:0]}
	s.gm[k] = gr
	s.order = append(s.order, gr)
	return gr
}

// materialize produces the group's candidate rule, parent.Q ⊕ ext. Workers
// only emit messages for extensions they successfully applied, and Apply is
// deterministic, so the application cannot fail here. The pattern storage
// is pooled per shard ordinal and recycled every round; survivors are cloned
// out of it in assemble's step 3.
func (s *asmScratch) materialize(m *miner, k groupKey, gi int) *core.Rule {
	parent := m.parents[k.parent]
	if parent == nil {
		panic("mine: assembled message references a rule outside the frontier")
	}
	for len(s.rules) <= gi {
		s.rules = append(s.rules, &core.Rule{Q: pattern.New(parent.Rule.Q.Symbols())})
	}
	r := s.rules[gi]
	q := parent.Rule.Q.ApplyInto(r.Q, k.ext)
	if q == nil {
		panic("mine: extension inapplicable at assembly")
	}
	r.Q, r.Pred = q, parent.Rule.Pred
	return r
}

// lookup finds gr's isomorphism class: rep is this round's representative
// of it, or nil, and inSigma reports a Σ member from an earlier round (a
// slot the per-round cap emptied counts as absent). DMine looks the code up:
// one isomorphism test, which spares the pairwise tests against every
// representative so far (BisimSkips, named for the Lemma 4 prefilter whose
// rejected pairs it counted before). DMineNo tests gr against each
// representative, then each Σ member, in turn.
func (m *miner) lookup(gr *group, uniq []*group) (rep *group, inSigma bool) {
	if !m.baseline {
		m.res.IsoChecks++
		m.res.BisimSkips += len(uniq)
		id, ok := m.sigmaCodes[string(gr.code)]
		return m.reps[string(gr.code)], ok && m.sigma[id] != nil
	}
	for _, other := range uniq {
		m.res.IsoChecks++
		if gr.rule.Q.IsomorphicTo(other.rule.Q) {
			return other, false
		}
	}
	for _, old := range m.sigma[seedID+1:] {
		if old != nil {
			m.res.IsoChecks++
			if gr.rule.Q.IsomorphicTo(old.Rule.Q) {
				return nil, true
			}
		}
	}
	return nil, false
}

// diversifyAndDistribute is lines 8-11 of Fig. 4: update the top-k
// structure, then hand each worker the center frontier of the rules to
// extend next round, all of ∆E, as views of their qCenters.
func (m *miner) diversifyAndDistribute(deltaE []*Mined) error {
	if !m.baseline {
		m.queue.Update(m.entriesOf(deltaE), m.allEntries())
	} else {
		// DMineNo recomputes the diversification from scratch every round.
		_ = diversify.Greedy(m.allEntries(), m.params)
	}
	return m.distribute(deltaE)
}

// entriesOf lists ∆E as diversifier entries, in the miner's recycled buffer
// (valid until the next call).
func (m *miner) entriesOf(deltaE []*Mined) []diversify.Entry {
	out := m.deltaEntries[:0]
	for _, mm := range deltaE {
		out = append(out, diversify.Entry{ID: uint32(mm.id), Conf: mm.Conf, Set: mm.Set, B: mm.bits})
	}
	m.deltaEntries = out
	return out
}
