package serve

import "gpar/internal/graph"

// MineCtxKey identifies one reusable mining layout in the mine-context memo:
// the snapshot generation (a proxy for graph identity — every swap bumps it
// and purges the memo, so stale contexts can never be served), the candidate
// x-label, the worker count n and the wire-fragment radius d. Two mine jobs
// with equal keys mine the same chunks of the same graph and, on a fleet,
// ship the same fragments. An in-process job's context is the snapshot's own
// candidate index, so reuse saves it about 180 ns; what reuse is worth is a
// fleet job's partition + encode + hash of about n serialized copies of the
// graph.
type MineCtxKey struct {
	Gen    uint64
	XLabel graph.Label
	D, N   int
}

// mineCacheCap is how many mine contexts (with, for fleet jobs, their
// encoded wire fragments) a server keeps across mine jobs.
const mineCacheCap = 4
