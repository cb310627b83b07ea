package serve

import (
	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/mine"
)

// MineCtxKey identifies one reusable mining layout in the mine-context
// memo: the generation (every publish purges the memo), the candidate
// x-label and the radius d; the worker count is the server's gate size. In
// process a context is the snapshot's own candidate index and three
// numbers, so reuse saves about 180 ns; the memo stays because the
// benchmark reads its hit ratio.
type MineCtxKey struct {
	Gen    uint64
	XLabel graph.Label
	D      int
}

// mineCacheCap is how many mine contexts a server keeps across mine jobs.
const mineCacheCap = 4

// minedKey identifies a finished mine result: the generation it holds for,
// the predicate, and the resolved options that decide it. Gate and Ctx are
// zeroed: they only schedule and cancel a run, and N is the server's gate
// size.
type minedKey struct {
	gen  uint64
	pred core.Predicate
	opts mine.Options
}

func minedKeyFor(gen uint64, pred core.Predicate, opts mine.Options) minedKey {
	opts.Gate, opts.Ctx = nil, nil
	return minedKey{gen, pred, opts}
}

// reach is max(D, MaxEdges)+1, the farthest any DMine probe of the run
// looks from a candidate center: a change farther away leaves the result
// as it is.
func (k minedKey) reach() int { return max(k.opts.D, k.opts.MaxEdges) + 1 }

// minedCap is how many finished mine results a server keeps.
const minedCap = 16
