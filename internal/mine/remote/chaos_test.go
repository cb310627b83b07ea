package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"gpar/internal/core"
	"gpar/internal/mine"
	"gpar/internal/mine/wire"
	"gpar/internal/netfault"
)

// Worker-written frame indexes on a job's connection, for targeting
// netfault scripts. The 5-byte handshake reply travels before frame parsing
// (SkipBytes).
const (
	frSetupAck = 1 // setup acknowledged
	frRound1   = 2 // first superstep's message reply
)

// chaosWatchdog bounds every faulted job: a fault must surface as an error
// well before it, never as a hang.
const chaosWatchdog = 20 * time.Second

// chaosFleet brings up n worker services, each behind a netfault listener.
// scriptFor(worker, conn) picks the fault plan for that worker's conn-th
// accepted connection (0-based, counting refused ones); nil passes through.
func chaosFleet(t *testing.T, n int, opts ServerOptions, scriptFor func(worker, conn int) *netfault.Script) ([]string, []*Service) {
	t.Helper()
	addrs := make([]string, n)
	svs := make([]*Service, n)
	for w := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fl := netfault.Wrap(l, func(i int) *netfault.Script { return scriptFor(w, i) })
		t.Cleanup(func() { fl.Close() })
		sv := NewService(opts)
		svs[w] = sv
		go sv.Serve(fl)
		addrs[w] = l.Addr().String()
	}
	return addrs, svs
}

// chaosJob is the job the chaos tests mine: a Pokec-like graph partitioned
// for n workers, its first predicate and the options.
func chaosJob(users int, seed int64, n int) (*mine.Context, core.Predicate, mine.Options) {
	g, pred := pokecFixture(users, seed)
	o := mine.Options{
		K: 4, Sigma: 2, D: 2, Lambda: 0.5, N: n,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.Defaults()
	return mine.NewContext(g, pred.XLabel, o), pred, o
}

// noFaults scripts every connection as a plain pass-through.
func noFaults(worker, conn int) *netfault.Script { return nil }

// dialAndMine is one job as a caller runs it: dial the fleet, mine, close.
// A dial failure is returned as is (it wraps ErrFleetUnavailable).
func dialAndMine(ctx *mine.Context, pred core.Predicate, o mine.Options, addrs []string, dopts DialOptions) (*mine.Result, error) {
	conns, err := DialFleet(addrs, dopts)
	if err != nil {
		return nil, err
	}
	defer CloseAll(conns)
	return Mine(ctx, pred, o, conns)
}

// mineWithin runs dialAndMine under the chaos watchdog.
func mineWithin(t *testing.T, ctx *mine.Context, pred core.Predicate, o mine.Options, addrs []string, dopts DialOptions) (*mine.Result, error) {
	t.Helper()
	type outcome struct {
		res *mine.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := dialAndMine(ctx, pred, o, addrs, dopts)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		return out.res, out.err
	case <-time.After(chaosWatchdog):
		t.Fatal("faulted job hung past the watchdog")
		return nil, nil
	}
}

// settleGoroutines fails the test unless the goroutine count falls back to
// at most want within a few seconds (brief scheduler noise is allowed for).
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	settleBy := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(settleBy) {
			t.Fatalf("goroutine leak: %d running, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosFaultClassesRetriedJobMatchesClean is the per-fault-class
// differential: each injected fault — refused dial, setup stall, mid-round
// disconnect, mid-frame truncation, corrupted length prefix — fails the job
// with a typed error within the watchdog and leaks no goroutines, and the
// caller's retry on a freshly dialed fleet is byte-identical to a clean
// in-process run.
func TestChaosFaultClassesRetriedJobMatchesClean(t *testing.T) {
	ctx, pred, o := chaosJob(200, 11, 2)
	want := fingerprint(mustMine(mine.DMineCtx(ctx, pred, o)))

	cases := []struct {
		name string
		// script faults worker 0's first connection; later ones are clean.
		script    *netfault.Script
		dialFails bool // the fault lands in the dial phase
		frameErr  bool // the cause is a *wire.FrameError
	}{
		// A refusal closes the connection before any byte: the dialer's
		// handshake read fails and the whole fleet is unavailable.
		{name: "refused-dial", script: &netfault.Script{RefuseDial: true}, dialFails: true},
		{name: "stall-setup", script: &netfault.Script{SkipBytes: 5, StallAtFrame: frSetupAck}},
		{name: "disconnect-mid-round", script: &netfault.Script{SkipBytes: 5, CloseAtFrame: frRound1}},
		{name: "truncate-mid-frame", script: &netfault.Script{SkipBytes: 5, TruncateAtFrame: frRound1}, frameErr: true},
		{name: "corrupt-length", script: &netfault.Script{SkipBytes: 5, CorruptAtFrame: frRound1}, frameErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs, _ := chaosFleet(t, 2, ServerOptions{}, func(worker, conn int) *netfault.Script {
				if worker == 0 && conn == 0 {
					return tc.script
				}
				return nil
			})
			before := runtime.NumGoroutine()
			dopts := DialOptions{StepTimeout: time.Second, DialTimeout: time.Second}
			res, err := mineWithin(t, ctx, pred, o, addrs, dopts)
			if res != nil || err == nil {
				t.Fatalf("faulted job returned (%v, %v), want a typed error", res, err)
			}
			if tc.dialFails {
				if !errors.Is(err, ErrFleetUnavailable) {
					t.Fatalf("error %v, want ErrFleetUnavailable", err)
				}
			} else {
				var we *mine.WorkerError
				if !errors.As(err, &we) || we.Worker != 0 {
					t.Fatalf("error %T (%v), want *mine.WorkerError for worker 0", err, err)
				}
			}
			var fe *wire.FrameError
			if tc.frameErr && !errors.As(err, &fe) {
				t.Fatalf("error %v does not wrap a *wire.FrameError", err)
			}
			// The worker goroutine a stall holds lives until its listener
			// closes at cleanup; everything the coordinator spawned is gone.
			settleGoroutines(t, before+2)

			res, err = mineWithin(t, ctx, pred, o, addrs, dopts)
			if err != nil {
				t.Fatalf("retry on a fresh fleet failed: %v", err)
			}
			if got := fingerprint(res); got != want {
				t.Fatalf("retried result differs from clean run:\n--- clean ---\n%s--- retried ---\n%s", want, got)
			}
		})
	}
}

// TestChaosRetriedByteIdentityAcrossWorkerCounts pins retried-vs-clean byte
// identity for every acceptance worker count: for each N the last worker's
// first connection dies mid-round, the job fails naming that worker, and a
// freshly dialed fleet mines the single-process result exactly.
func TestChaosRetriedByteIdentityAcrossWorkerCounts(t *testing.T) {
	g, pred := pokecFixture(200, 5)
	base := mine.Options{
		K: 4, Sigma: 2, D: 2, Lambda: 0.5,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}

	for _, n := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o := base
			o.N = n
			o = o.Defaults()
			ctx := mine.NewContext(g, pred.XLabel, o)
			want := fingerprint(mustMine(mine.DMineCtx(ctx, pred, o)))

			addrs, _ := chaosFleet(t, n, ServerOptions{}, func(worker, conn int) *netfault.Script {
				if worker == n-1 && conn == 0 {
					return &netfault.Script{SkipBytes: 5, CloseAtFrame: frRound1}
				}
				return nil
			})
			dopts := DialOptions{StepTimeout: time.Second}
			_, err := mineWithin(t, ctx, pred, o, addrs, dopts)
			var we *mine.WorkerError
			if !errors.As(err, &we) || we.Worker != n-1 {
				t.Fatalf("error %T (%v), want *mine.WorkerError for worker %d", err, err, n-1)
			}
			res, err := mineWithin(t, ctx, pred, o, addrs, dopts)
			if err != nil {
				t.Fatalf("retry on a fresh fleet failed: %v", err)
			}
			if got := fingerprint(res); got != want {
				t.Fatalf("n=%d retried result differs from clean run", n)
			}
		})
	}
}

// TestChaosAllDialsRefusedFleetUnavailable: a fleet that refuses every
// connection fails DialFleet with ErrFleetUnavailable and leaves no
// connection behind.
func TestChaosAllDialsRefusedFleetUnavailable(t *testing.T) {
	addrs, svs := chaosFleet(t, 2, ServerOptions{}, func(worker, conn int) *netfault.Script {
		return &netfault.Script{RefuseDial: true}
	})
	conns, err := DialFleet(addrs, DialOptions{StepTimeout: time.Second, DialTimeout: time.Second})
	if conns != nil {
		CloseAll(conns)
		t.Fatal("refused fleet returned connections")
	}
	if !errors.Is(err, ErrFleetUnavailable) {
		t.Fatalf("error %v, want ErrFleetUnavailable", err)
	}
	for w, sv := range svs {
		if st := sv.Stats(); st.Jobs != 0 {
			t.Fatalf("worker %d ran %d jobs behind a refused dial", w, st.Jobs)
		}
	}
}

// TestChaosCancelAgainstStalledWorker is the cancellation liveness pin: a
// coordinator-side cancel fired while a worker is stalled mid-superstep
// (its round reply never arrives, and the step deadline is a full minute
// away) must unwedge the blocked exchange immediately — the stalled
// connection's deadline is slammed, the idle one gets a Cancel frame —
// return a typed *mine.CanceledError, and leak no goroutines. CI runs this
// under -race.
func TestChaosCancelAgainstStalledWorker(t *testing.T) {
	mctx, pred, o := chaosJob(150, 3, 2)

	addrs, _ := chaosFleet(t, 2, ServerOptions{}, func(worker, conn int) *netfault.Script {
		if worker == 0 {
			return &netfault.Script{SkipBytes: 5, StallAtFrame: frRound1}
		}
		return nil
	})
	before := runtime.NumGoroutine()
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	o.Ctx = runCtx
	timer := time.AfterFunc(150*time.Millisecond, cancel)
	defer timer.Stop()

	start := time.Now()
	res, err := mineWithin(t, mctx, pred, o, addrs, DialOptions{StepTimeout: time.Minute})
	if res != nil {
		t.Fatal("canceled job returned a result")
	}
	var ce *mine.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *mine.CanceledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v; the one-minute step deadline must not be what fired", elapsed)
	}
	// Everything the job spawned (dials, watcher, the stalled exchange) must
	// wind down once the fleet is closed. The worker services' accept loops
	// predate `before`, so the count settles back to it.
	settleGoroutines(t, before+2)
}

// TestChaosPreCanceledJobNeverSetsUp: a run context that is already dead
// ends the job before any worker is set up — no worker starts a job.
func TestChaosPreCanceledJobNeverSetsUp(t *testing.T) {
	mctx, pred, o := chaosJob(150, 3, 1)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = dead

	addrs, svs := chaosFleet(t, 1, ServerOptions{}, noFaults)
	res, err := mineWithin(t, mctx, pred, o, addrs, DialOptions{DialTimeout: time.Second})
	if res != nil {
		t.Fatal("pre-canceled job returned a result")
	}
	var ce *mine.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *mine.CanceledError", err, err)
	}
	if st := svs[0].Stats(); st.Jobs != 0 {
		t.Fatalf("worker stats %+v, want no job", st)
	}
}
