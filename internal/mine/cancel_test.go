package mine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gpar/internal/gen"
	"gpar/internal/graph"
)

// must unwraps a (value, error) pair, panicking on error — panic rather
// than t.Fatal so it is usable inside test goroutines.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// pollCtx is a deterministic cancellable context: Err returns nil for the
// first allow polls and context.Canceled (stickily) forever after. Done is
// nil, so nothing in the engine can observe the cancel except the counted
// Err polls — which makes the superstep at which a run aborts a pure
// function of the poll budget, not of goroutine scheduling.
type pollCtx struct {
	remaining atomic.Int64
}

func newPollCtx(allow int) *pollCtx {
	c := &pollCtx{}
	c.remaining.Store(int64(allow))
	return c
}

func (c *pollCtx) Deadline() (deadline time.Time, ok bool) { return }
func (c *pollCtx) Done() <-chan struct{}                   { return nil }
func (c *pollCtx) Value(key any) any                       { return nil }
func (c *pollCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestDMineCtxCanceledBeforeStart pins the fastest abort: a context that is
// already done cancels the run at superstep 0 with the typed error, before
// any mining work happens.
func TestDMineCtxCanceledBeforeStart(t *testing.T) {
	g, preds, opts := contextFixture(t)
	pred := preds[0]
	ctx := NewContext(g, pred.XLabel, opts)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	o := opts
	o.Ctx = done
	res, err := DMineCtx(ctx, pred, o)
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *CanceledError", err, err)
	}
	if ce.Superstep != 0 {
		t.Fatalf("Superstep = %d, want 0", ce.Superstep)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// TestDMineCtxDeadlineExceeded pins the deadline flavor: an expired
// deadline surfaces as *CanceledError unwrapping context.DeadlineExceeded,
// which is what the serving layer maps to the deadline_exceeded job state.
func TestDMineCtxDeadlineExceeded(t *testing.T) {
	g, preds, opts := contextFixture(t)
	pred := preds[0]
	ctx := NewContext(g, pred.XLabel, opts)
	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	o := opts
	o.Ctx = expired
	if _, err := DMineCtx(ctx, pred, o); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to context.DeadlineExceeded", err)
	}
}

// TestCancelThenRerunParityLocal is the cancellation parity pin for the
// in-process engine: cancel a run at an arbitrary superstep (driven by a
// counted poll budget), then rerun clean on the same Context — and, this
// test's runs being sequential, on the pooled workers the canceled run just
// released. The rerun must be byte-identical, for every worker count, to two
// oracles: a fresh DMine, and (arenasOff=true) the digest the arenas-off
// mode produced for this matrix at 04ded92, where no canceled run could
// leave anything behind in a recycled lane. This is what makes cancel safe
// for the worker pool every serving job draws from: nothing a canceled run
// touched survives in a result-bearing structure.
func TestCancelThenRerunParityLocal(t *testing.T) {
	g, preds, base := contextFixture(t)
	pred := preds[0]
	for _, arenasOff := range []bool{false, true} {
		for _, n := range []int{1, 2, 3, 8} {
			o := base
			o.N = n
			t.Run(fmt.Sprintf("arenasOff=%v/n=%d", arenasOff, n), func(t *testing.T) {
				want := arenasOffGoldens["cancel"]
				if !arenasOff {
					want = digest(DMine(g, pred, o))
				}
				ctx := NewContext(g, pred.XLabel, o)
				completed := false
				for _, allow := range []int{0, 1, 3, 7, 15, 40, 200} {
					co := o
					co.Ctx = newPollCtx(allow)
					res, err := DMineCtx(ctx, pred, co)
					if err == nil {
						// Budget outlasted the run: it finished normally and
						// must match, cancellable context or not.
						if got := digest(res); got != want {
							t.Fatalf("allow=%d: uncanceled run mines %s, want %s", allow, got, want)
						}
						completed = true
						continue
					}
					var ce *CanceledError
					if !errors.As(err, &ce) {
						t.Fatalf("allow=%d: error %T (%v), want *CanceledError", allow, err, err)
					}
					if res != nil {
						t.Fatalf("allow=%d: canceled run returned a result", allow)
					}
					if got := digest(must(DMineCtx(ctx, pred, o))); got != want {
						t.Fatalf("allow=%d: rerun after cancel at superstep %d mines %s, want %s",
							allow, ce.Superstep, got, want)
					}
				}
				if !completed {
					t.Fatal("no poll budget outlasted the run; raise the largest allow")
				}
			})
		}
	}
}

// TestCancelThenRerunParitySharedContext: a run canceled at any superstep
// leaves only whole discoveries in its context's memo, so the runs that
// follow on that context — another predicate, then the canceled one again —
// equal runs on a fresh context in the whole Result.
func TestCancelThenRerunParitySharedContext(t *testing.T) {
	g, preds, base := contextFixture(t)
	for _, n := range []int{1, 3} {
		o := base
		o.N = n
		want := make([]string, 2)
		for i := range want {
			want[i] = whole(must(DMineCtx(NewContext(g, preds[i].XLabel, o), preds[i], o)))
		}
		for _, allow := range []int{0, 1, 3, 5, 7} {
			ctx := NewContext(g, preds[0].XLabel, o)
			co := o
			co.Ctx = newPollCtx(allow)
			if _, err := DMineCtx(ctx, preds[0], co); err == nil {
				t.Fatalf("n=%d allow=%d: run was not canceled; lower the allow", n, allow)
			}
			for _, i := range []int{1, 0} {
				if got := whole(must(DMineCtx(ctx, preds[i], o))); got != want[i] {
					t.Fatalf("n=%d allow=%d: predicate %d after the cancel differs from a fresh context", n, allow, i)
				}
			}
		}
	}
}

// TestCancelThenRerunParityDistributed extends the parity pin across the
// wire codec: cancel a distributed run at a counted superstep boundary,
// then rerun clean over fresh loopback workers — byte-identical to the
// local result for every worker count.
func TestCancelThenRerunParityDistributed(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(200, 9))
	pred := gen.PokecPredicates(syms)[0]
	base := Options{
		K: 6, Sigma: 2, D: 2, Lambda: 0.5,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}
	for _, n := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o := base
			o.N = n
			o = o.Defaults()
			ctx := NewContext(g, pred.XLabel, o)
			want := fingerprint(must(DMineCtx(ctx, pred, o)))
			completed := false
			for _, allow := range []int{0, 1, 2, 3, 5, 9} {
				co := o
				co.Ctx = newPollCtx(allow)
				res, err := DMineDistributed(ctx, pred, co, loopbackConns(n))
				if err == nil {
					if got := fingerprint(res); got != want {
						t.Fatalf("allow=%d: uncanceled distributed run differs from local", allow)
					}
					completed = true
					continue
				}
				var ce *CanceledError
				if !errors.As(err, &ce) {
					t.Fatalf("allow=%d: error %T (%v), want *CanceledError", allow, err, err)
				}
				if res != nil {
					t.Fatalf("allow=%d: canceled run returned a result", allow)
				}
				got := fingerprint(must(DMineDistributed(ctx, pred, o, loopbackConns(n))))
				if got != want {
					t.Fatalf("allow=%d: distributed rerun after cancel at superstep %d differs:\n%s\nvs\n%s",
						allow, ce.Superstep, want, got)
				}
			}
			if !completed {
				t.Fatal("no poll budget outlasted the run; raise the largest allow")
			}
		})
	}
}

// TestCancelReleasesGate pins the no-leak property the server relies on: a
// canceled run must return every Gate slot, whether workers were queued on
// the gate or already running when the context went dead.
func TestCancelReleasesGate(t *testing.T) {
	g, preds, opts := contextFixture(t)
	pred := preds[0]
	ctx := NewContext(g, pred.XLabel, opts)
	for _, allow := range []int{0, 2, 5, 11} {
		gate := NewGate(2)
		o := opts
		o.Gate = gate
		o.Ctx = newPollCtx(allow)
		_, err := DMineCtx(ctx, pred, o)
		if err != nil {
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("allow=%d: error %T (%v), want *CanceledError", allow, err, err)
			}
		}
		if inUse := gate.InUse(); inUse != 0 {
			t.Fatalf("allow=%d: gate occupancy %d after run, want 0", allow, inUse)
		}
	}
}
