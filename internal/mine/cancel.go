package mine

import (
	"context"
	"fmt"
)

// This file is the cancellation layer of the mining loop. A DMine run is
// a BSP computation: supersteps are the natural abort points, because
// between them the coordinator holds no partially-reduced state — Σ, the
// diversification queue and every arena are consistent at a superstep
// boundary. Cancellation therefore polls Options.Ctx once per superstep
// (and each worker checks it before its share of one), abandons the run
// without installing anything, and lets the deferred release return every
// worker and arena to its pool. A canceled-then-rerun job is
// byte-identical to a clean run — pinned by the parity tests — because
// nothing a canceled run touched survives in a result-bearing structure.

// CanceledError is the typed failure of a canceled or deadline-expired
// mining run: which BSP superstep the coordinator had reached (0 = the
// setup/classification superstep, r ≥ 1 = mining round r) and the context's
// verdict. Unwrap exposes the latter, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) distinguish an explicit
// cancel from an expired deadline.
type CanceledError struct {
	Superstep int   // BSP superstep reached when the run was abandoned
	Err       error // context.Canceled or context.DeadlineExceeded
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("mine: run canceled at superstep %d: %v", e.Superstep, e.Err)
}

func (e *CanceledError) Unwrap() error { return e.Err }

// canceled polls the run context at a superstep boundary. It reads Err()
// rather than selecting on Done() so that tests can drive deterministic
// cancel points with a context whose Err flips after a counted number of
// polls (Done may be nil for such contexts).
func (m *miner) canceled(step int) error {
	if m.opts.Ctx == nil {
		return nil
	}
	if err := m.opts.Ctx.Err(); err != nil {
		return &CanceledError{Superstep: step, Err: err}
	}
	return nil
}

// acquireCtx is acquire with cancellation: it returns the context's error
// instead of a slot once ctx is done. With a nil context (or one whose Done
// channel is nil) it degrades to a plain blocking acquire.
func (g *Gate) acquireCtx(ctx context.Context) error {
	if ctx == nil {
		g.sem <- struct{}{}
		return nil
	}
	select {
	case g.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// InUse reports how many worker slots are currently held — the mine-gate
// occupancy a server surfaces as a saturation signal.
func (g *Gate) InUse() int { return len(g.sem) }
