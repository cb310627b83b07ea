package mine

import (
	"cmp"
	"fmt"

	"gpar/internal/pattern"
)

// This file holds the per-run identity interning of the mining loop. The
// levelwise BSP computation used to address everything by strings — rule
// keys "R%05d", extension keys "src|o3|7|-1" — built and hashed millions of
// times per run. Both are now compact comparable values; the string forms
// survive only at API boundaries (Mined.Key, serve's cache keys, logs).

// ruleID identifies one candidate rule within a single DMine run. IDs are
// dense: the coordinator assigns them in deterministic discovery order, so
// Σ, Uconf and the diversifier index by them directly. 0 is the seed rule
// (the empty antecedent), never reported.
type ruleID uint32

const seedID ruleID = 0

// String renders the legacy boundary form.
func (id ruleID) String() string {
	if id == seedID {
		return "seed"
	}
	return fmt.Sprintf("R%05d", uint32(id))
}

// groupKey identifies one candidate rule of a round structurally: the
// parent it grew from plus the extension applied. pattern.Extension is
// comparable, so the pair is directly usable as a map key and as the shard-assignment hash input.
type groupKey struct {
	parent ruleID
	ext    pattern.Extension
}

// compare orders group keys deterministically: by parent ID, then by the
// extension's total order. The sharded assembly sorts the merged groups
// with it, which is what keeps results independent of the shard count.
func (k groupKey) compare(o groupKey) int {
	return cmp.Or(cmp.Compare(k.parent, o.parent), k.ext.Compare(o.ext))
}

// hash maps the key to an assembly shard. Any deterministic function works
// (the reduce re-sorts), but FNV-1a spreads the dense parent IDs well.
func (k groupKey) hash() uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime32
		}
	}
	mix(uint32(k.parent))
	mix(uint32(k.ext.Src))
	v := uint32(k.ext.EdgeLabel)<<2 | uint32(k.ext.NewLabel)<<12 // cheap fold; exactness irrelevant
	if k.ext.Outgoing {
		v |= 1
	}
	if k.ext.AsY {
		v |= 2
	}
	mix(v)
	mix(uint32(int32(k.ext.Close)))
	return h
}
