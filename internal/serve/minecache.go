package serve

import "gpar/internal/graph"

// MineCtxKey identifies one reusable mining layout in the mine-context memo:
// the snapshot generation (a proxy for graph identity — every swap bumps it
// and purges the memo, so stale contexts can never be served), the candidate
// x-label, the worker count n and the radius d. Two mine jobs with equal
// keys mine the same chunks of the same graph. Every job runs in process,
// where a context is the snapshot's own candidate index and three numbers,
// so reuse saves about 180 ns; the memo stays because the benchmark reads
// its hit ratio.
type MineCtxKey struct {
	Gen    uint64
	XLabel graph.Label
	D, N   int
}

// mineCacheCap is how many mine contexts a server keeps across mine jobs.
const mineCacheCap = 4
