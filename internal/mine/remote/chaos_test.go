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
	"gpar/internal/netfault"
)

// Worker-written frame indexes on a connection to a worker with a cold
// fragment cache under MineFleet (which health-probes before the job), for
// targeting netfault scripts. The 5-byte handshake reply travels before
// frame parsing (SkipBytes).
const (
	frPingEcho = 1 // Ping echo from the health probe
	frFragNeed = 2 // cold fragment cache asks for the body
	frSetupAck = 3 // setup acknowledged
	frRound1   = 4 // first superstep's message reply
)

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
	}.WithOptimizations().Defaults()
	return mine.NewContext(g, pred.XLabel, o), pred, o
}

// noFaults scripts every connection as a plain pass-through.
func noFaults(worker, conn int) *netfault.Script { return nil }

// noSleep is the chaos-test retry policy: real attempt budget, no waiting.
func noSleep(attempts int) RetryPolicy {
	return RetryPolicy{Attempts: attempts, Sleep: func(time.Duration) {}}
}

// TestChaosFaultClassesRetriedJobMatchesClean is the per-fault-class
// differential: each injected fault — refused dial, setup stall, mid-round
// disconnect, mid-frame truncation, corrupted length prefix — fails the
// first attempt with a typed error, the retry re-dials and succeeds, and
// the retried job's result is byte-identical to a clean in-process run.
func TestChaosFaultClassesRetriedJobMatchesClean(t *testing.T) {
	ctx, pred, o := chaosJob(200, 11, 2)
	want := fingerprint(mustMine(mine.DMineCtx(ctx, pred, o)))

	cases := []struct {
		name string
		// script faults worker 0's conn-th connection.
		script    func(conn int) *netfault.Script
		dialFails bool // the fault lands in the dial/probe phase
	}{
		{
			// A refusal closes the connection before any byte: the dialer's
			// handshake read fails, the attempt is a dial failure, and the
			// retry's fresh connection (conn 1) goes through.
			name: "refused-dial",
			script: func(conn int) *netfault.Script {
				if conn == 0 {
					return &netfault.Script{RefuseDial: true}
				}
				return nil
			},
			dialFails: true,
		},
		{
			name: "stall-setup",
			script: func(conn int) *netfault.Script {
				if conn == 0 {
					return &netfault.Script{SkipBytes: 5, StallAtFrame: frSetupAck}
				}
				return nil
			},
		},
		{
			name: "disconnect-mid-round",
			script: func(conn int) *netfault.Script {
				if conn == 0 {
					return &netfault.Script{SkipBytes: 5, CloseAtFrame: frRound1}
				}
				return nil
			},
		},
		{
			name: "truncate-mid-frame",
			script: func(conn int) *netfault.Script {
				if conn == 0 {
					return &netfault.Script{SkipBytes: 5, TruncateAtFrame: frSetupAck}
				}
				return nil
			},
		},
		{
			name: "corrupt-length",
			script: func(conn int) *netfault.Script {
				if conn == 0 {
					return &netfault.Script{SkipBytes: 5, CorruptAtFrame: frRound1}
				}
				return nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addrs, _ := chaosFleet(t, 2, ServerOptions{}, func(worker, conn int) *netfault.Script {
				if worker == 0 {
					return tc.script(conn)
				}
				return nil
			})
			start := time.Now()
			res, rep, err := MineFleet(ctx, pred, o, addrs,
				DialOptions{StepTimeout: time.Second}, noSleep(3), nil)
			if err != nil {
				t.Fatalf("retried job failed: %v (report %+v)", err, rep)
			}
			if rep.Attempts != 2 {
				t.Fatalf("attempts = %d, want 2 (one faulted, one clean)", rep.Attempts)
			}
			if tc.dialFails && rep.DialFailures != 1 {
				t.Fatalf("dial failures = %d, want 1 (report %+v)", rep.DialFailures, rep)
			}
			if !tc.dialFails && rep.WorkerFailures != 1 {
				t.Fatalf("worker failures = %d, want 1 (report %+v)", rep.WorkerFailures, rep)
			}
			if got := fingerprint(res); got != want {
				t.Fatalf("retried result differs from clean run:\n--- clean ---\n%s--- retried ---\n%s", want, got)
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Fatalf("chaos retry took %v", elapsed)
			}
		})
	}
}

// TestChaosRetriedByteIdentityAcrossWorkerCounts pins retried-vs-clean byte
// identity for every acceptance worker count: for each N the last worker's
// first connection dies mid-round, the retry succeeds, and the result
// matches the single-process run exactly.
func TestChaosRetriedByteIdentityAcrossWorkerCounts(t *testing.T) {
	g, pred := pokecFixture(200, 5)
	base := mine.Options{
		K: 4, Sigma: 2, D: 2, Lambda: 0.5,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.WithOptimizations()

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
			res, rep, err := MineFleet(ctx, pred, o, addrs,
				DialOptions{StepTimeout: time.Second}, noSleep(3), nil)
			if err != nil {
				t.Fatalf("retried job failed: %v (report %+v)", err, rep)
			}
			if rep.Attempts != 2 || rep.WorkerFailures != 1 {
				t.Fatalf("report %+v, want exactly one failed attempt", rep)
			}
			if got := fingerprint(res); got != want {
				t.Fatalf("n=%d retried result differs from clean run", n)
			}
		})
	}
}

// TestChaosExhaustedRetriesTypedError: when every attempt fails (all
// connections stall right after the health probe), MineFleet returns the
// typed mid-job error after exactly the policy's attempt budget, bounded in
// time by the step deadline — no hang.
func TestChaosExhaustedRetriesTypedError(t *testing.T) {
	ctx, pred, o := chaosJob(150, 3, 2)

	addrs, _ := chaosFleet(t, 2, ServerOptions{}, func(worker, conn int) *netfault.Script {
		return &netfault.Script{SkipBytes: 5, StallAtFrame: frFragNeed}
	})
	start := time.Now()
	res, rep, err := MineFleet(ctx, pred, o, addrs,
		DialOptions{StepTimeout: 300 * time.Millisecond}, noSleep(2), nil)
	elapsed := time.Since(start)
	if res != nil {
		t.Fatal("exhausted retries returned a result")
	}
	var we *mine.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error %T (%v), want *mine.WorkerError", err, err)
	}
	if rep.Attempts != 2 || rep.WorkerFailures != 2 {
		t.Fatalf("report %+v, want 2 attempts, 2 worker failures", rep)
	}
	if elapsed > 15*time.Second {
		t.Fatalf("exhausted retries took %v", elapsed)
	}
}

// TestChaosAllDialsRefusedFleetUnavailable: a fleet that refuses every
// connection exhausts the dial phase with ErrFleetUnavailable and counts
// every attempt as a dial failure.
func TestChaosAllDialsRefusedFleetUnavailable(t *testing.T) {
	ctx, pred, o := chaosJob(150, 3, 2)

	addrs, _ := chaosFleet(t, 2, ServerOptions{}, func(worker, conn int) *netfault.Script {
		return &netfault.Script{RefuseDial: true}
	})
	res, rep, err := MineFleet(ctx, pred, o, addrs,
		DialOptions{StepTimeout: time.Second, DialTimeout: time.Second}, noSleep(2), nil)
	if res != nil {
		t.Fatal("refused fleet returned a result")
	}
	if !errors.Is(err, ErrFleetUnavailable) {
		t.Fatalf("error %v, want ErrFleetUnavailable", err)
	}
	if rep.Attempts != 2 || rep.DialFailures != 2 {
		t.Fatalf("report %+v, want 2 attempts, 2 dial failures", rep)
	}
}

// TestChaosStopAbandonsRetries: the stop hook (a draining server) ends the
// retry loop before the second attempt, returning the first attempt's error
// without sleeping out the backoff.
func TestChaosStopAbandonsRetries(t *testing.T) {
	ctx, pred, o := chaosJob(150, 3, 1)

	addrs, _ := chaosFleet(t, 1, ServerOptions{}, func(worker, conn int) *netfault.Script {
		return &netfault.Script{RefuseDial: true}
	})
	res, rep, err := MineFleet(ctx, pred, o, addrs,
		DialOptions{StepTimeout: time.Second, DialTimeout: time.Second},
		RetryPolicy{Attempts: 5, Sleep: func(time.Duration) { t.Fatal("slept despite stop") }},
		func() bool { return true })
	if res != nil || err == nil {
		t.Fatal("abandoned job returned a result")
	}
	if rep.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (stop before the first retry)", rep.Attempts)
	}
}

// TestChaosCancelAgainstStalledWorker is the cancellation liveness pin: a
// coordinator-side cancel fired while a worker is stalled mid-superstep
// (its round reply never arrives, and the step deadline is a full minute
// away) must unwedge the blocked exchange immediately — the stalled
// connection's deadline is slammed, the idle one gets a Cancel frame —
// return a typed *mine.CanceledError without retrying, and leak no
// goroutines. CI runs this under -race.
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

	type outcome struct {
		res *mine.Result
		rep JobReport
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		res, rep, err := MineFleet(mctx, pred, o, addrs,
			DialOptions{StepTimeout: time.Minute}, noSleep(3), nil)
		done <- outcome{res, rep, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("cancel against a stalled worker hung past the watchdog")
	}
	if out.res != nil {
		t.Fatal("canceled job returned a result")
	}
	var ce *mine.CanceledError
	if !errors.As(out.err, &ce) {
		t.Fatalf("error %T (%v), want *mine.CanceledError", out.err, out.err)
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", out.err)
	}
	if out.rep.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (a canceled job must not retry)", out.rep.Attempts)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancel took %v; the one-minute step deadline must not be what fired", elapsed)
	}
	// Leak check: everything MineFleet spawned (dials, watcher, the
	// stalled exchange) must wind down once the fleet is closed. The
	// worker services' accept loops predate `before`, so the count
	// settles back to it; allow brief scheduler noise.
	settleBy := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(settleBy) {
			t.Fatalf("goroutine leak after cancel: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosPreCanceledJobNeverDials: a run context that is already dead
// ends MineFleet before any attempt touches the network.
func TestChaosPreCanceledJobNeverDials(t *testing.T) {
	mctx, pred, o := chaosJob(150, 3, 1)
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	o.Ctx = dead
	// No listener behind this address: a dial attempt would fail loudly
	// rather than hang, but the point is it must not happen at all.
	res, _, err := MineFleet(mctx, pred, o, []string{"127.0.0.1:1"},
		DialOptions{DialTimeout: time.Second}, noSleep(3), nil)
	if res != nil {
		t.Fatal("pre-canceled job returned a result")
	}
	var ce *mine.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *mine.CanceledError", err, err)
	}
}

// TestChaosFragmentShipsOncePerWorker: repeat jobs over re-dialed
// connections ship each worker's fragment exactly once — the first job
// pays one FragShip per worker, every later job (and every retry) is all
// cache hits, visible on both the coordinator's JobReport and the worker
// services' own stats.
func TestChaosFragmentShipsOncePerWorker(t *testing.T) {
	ctx, pred, o := chaosJob(200, 11, 2)
	want := fingerprint(mustMine(mine.DMineCtx(ctx, pred, o)))

	addrs, svs := chaosFleet(t, 2, ServerOptions{}, noFaults)
	policy := noSleep(2)
	dopts := DialOptions{StepTimeout: 30 * time.Second}

	res, rep, err := MineFleet(ctx, pred, o, addrs, dopts, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FragShips != 2 || rep.FragHits != 0 {
		t.Fatalf("first job report %+v, want 2 ships, 0 hits", rep)
	}
	if got := fingerprint(res); got != want {
		t.Fatal("first job result differs from clean run")
	}

	// Same context, fresh connections: the fragment must not travel again.
	for i := 0; i < 2; i++ {
		res, rep, err = MineFleet(ctx, pred, o, addrs, dopts, policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FragShips != 0 || rep.FragHits != 2 {
			t.Fatalf("repeat job %d report %+v, want 0 ships, 2 hits", i, rep)
		}
		if got := fingerprint(res); got != want {
			t.Fatalf("repeat job %d result differs", i)
		}
	}
	for w, sv := range svs {
		st := sv.Stats()
		if st.FragCache.Misses != 1 || st.FragCache.Hits != 2 || st.FragCache.Entries != 1 {
			t.Fatalf("worker %d cache stats %+v, want 1 miss, 2 hits, 1 entry", w, st.FragCache)
		}
		if st.Jobs != 3 {
			t.Fatalf("worker %d served %d jobs, want 3", w, st.Jobs)
		}
	}
}

// TestChaosRetryWarmCacheSkipsShip: a job whose first attempt dies AFTER
// the fragment landed retries against a warm cache — the fragment travels
// once even though the job ran twice.
func TestChaosRetryWarmCacheSkipsShip(t *testing.T) {
	ctx, pred, o := chaosJob(200, 11, 2)

	addrs, svs := chaosFleet(t, 2, ServerOptions{}, func(worker, conn int) *netfault.Script {
		if worker == 0 && conn == 0 {
			// The fragment arrives during setup (before SetupAck); dying on
			// the first round reply leaves the cache warm.
			return &netfault.Script{SkipBytes: 5, CloseAtFrame: frRound1}
		}
		return nil
	})
	res, rep, err := MineFleet(ctx, pred, o, addrs,
		DialOptions{StepTimeout: time.Second}, noSleep(3), nil)
	if err != nil || res == nil {
		t.Fatalf("retried job failed: %v", err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", rep.Attempts)
	}
	// The winning attempt hit both caches: worker 0's was warmed by the
	// failed attempt, worker 1's by its own completed setup.
	if rep.FragShips != 0 || rep.FragHits != 2 {
		t.Fatalf("winning attempt report %+v, want 0 ships, 2 hits", rep)
	}
	for w, sv := range svs {
		if st := sv.Stats(); st.FragCache.Misses != 1 {
			t.Fatalf("worker %d shipped the fragment %d times, want once", w, st.FragCache.Misses)
		}
	}
}
