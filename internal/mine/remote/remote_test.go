package remote

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"gpar/internal/core"
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
	"gpar/internal/mine/wire"
	"gpar/internal/netfault"
)

// startWorkers brings up n worker services on loopback TCP and returns
// their addresses. Listeners close on test cleanup, which ends each Serve
// loop.
func startWorkers(t testing.TB, n int, opts ServerOptions) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go Serve(l, opts)
		addrs[i] = l.Addr().String()
	}
	return addrs
}

// mustMine / mustMulti unwrap (value, error) mining pairs; the
// differentials below never expect the local reference runs to fail.
func mustMine(res *mine.Result, err error) *mine.Result {
	if err != nil {
		panic(err)
	}
	return res
}

func mustMulti(res []mine.MultiResult, err error) []mine.MultiResult {
	if err != nil {
		panic(err)
	}
	return res
}

// fingerprint serializes every exported field of a Result so local and
// distributed runs compare byte-identically. The op counts, which must
// survive the wire, enter as their total: how it splits over the workers is
// the layout's (wire fragments against in-process chunks), not the run's.
func fingerprint(res *mine.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds=%d generated=%d kept=%d pruned=%d F=%.17g\n",
		res.Rounds, res.Generated, res.Kept, res.Pruned, res.F)
	var ops int64
	for _, op := range res.WorkerOps {
		ops += op
	}
	fmt.Fprintf(&b, "workers=%d ops=%d\n", len(res.WorkerOps), ops)
	dump := func(name string, ms []mine.Mined) {
		fmt.Fprintf(&b, "%s %d\n", name, len(ms))
		for _, mm := range ms {
			fmt.Fprintf(&b, "  %s rule=%v stats=%+v conf=%.17g set=%v\n",
				mm.Key(), mm.Rule.Q, mm.Stats, mm.Conf, mm.Set)
		}
	}
	dump("topk", res.TopK)
	dump("all", res.All)
	return b.String()
}

func pokecFixture(users int, seed int64) (*graph.Graph, core.Predicate) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(users, seed))
	return g, gen.PokecPredicates(syms)[0]
}

// TestMineMatchesLocalTCP is the acceptance differential: byte-identical
// distributed results over loopback TCP vs single-process DMineCtx for
// every worker count.
func TestMineMatchesLocalTCP(t *testing.T) {
	g, pred := pokecFixture(300, 5)
	base := mine.Options{
		K: 6, Sigma: 3, D: 2, Lambda: 0.5,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}

	for _, n := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o := base
			o.N = n
			o = o.Defaults()
			ctx := mine.NewContext(g, pred.XLabel, o)
			want := fingerprint(mustMine(mine.DMineCtx(ctx, pred, o)))

			addrs := startWorkers(t, n, ServerOptions{})
			conns, err := DialFleet(addrs, DialOptions{StepTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer CloseAll(conns)
			res, err := Mine(ctx, pred, o, conns)
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res); got != want {
				t.Fatalf("distributed result differs from local:\n--- local ---\n%s--- distributed ---\n%s", want, got)
			}
		})
	}
}

// TestMineMultiJobReuse runs several predicates' jobs back to back over one
// fleet — the DMineMulti shape — pinning both connection reuse across jobs
// and per-predicate byte-identity with the in-process engine.
func TestMineMultiJobReuse(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(250, 7))
	preds := gen.PokecPredicates(syms)
	if len(preds) > 3 {
		preds = preds[:3]
	}
	o := mine.Options{
		K: 6, Sigma: 2, D: 2, Lambda: 0.5, N: 3,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.Defaults()

	want := mustMulti(mine.DMineMulti(g, preds, o))

	addrs := startWorkers(t, 3, ServerOptions{})
	conns, err := DialFleet(addrs, DialOptions{StepTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(conns)

	ctxs := make(map[graph.Label]*mine.Context)
	for i, mr := range want {
		ctx := ctxs[mr.Pred.XLabel]
		if ctx == nil {
			ctx = mine.NewContext(g, mr.Pred.XLabel, o)
			ctxs[mr.Pred.XLabel] = ctx
		}
		res, err := Mine(ctx, mr.Pred, o, conns)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if fw, fg := fingerprint(mr.Result), fingerprint(res); fw != fg {
			t.Fatalf("job %d differs from DMineMulti:\n%s\nvs\n%s", i, fw, fg)
		}
	}
}

// stalledWorker accepts one connection, completes the handshake, then reads
// frames forever without ever answering — the pathological peer the
// coordinator's step deadline exists for.
func stalledWorker(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if wire.Handshake(conn, false) != nil {
			return
		}
		var buf []byte
		for {
			if _, _, nb, err := wire.ReadFrame(conn, buf, 0); err != nil {
				return
			} else {
				buf = nb
			}
		}
	}()
	return l.Addr().String()
}

// TestStalledWorkerTimesOut: a worker that accepts the job but never
// answers must fail the run with a typed *mine.WorkerError within the
// configured step deadline — no hang, no partial result.
func TestStalledWorkerTimesOut(t *testing.T) {
	g, pred := pokecFixture(150, 3)
	o := mine.Options{
		K: 4, Sigma: 2, D: 2, Lambda: 0.5, N: 2,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.Defaults()
	ctx := mine.NewContext(g, pred.XLabel, o)

	addrs := startWorkers(t, 1, ServerOptions{})
	addrs = append(addrs, stalledWorker(t))
	conns, err := DialFleet(addrs, DialOptions{StepTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(conns)

	start := time.Now()
	res, err := Mine(ctx, pred, o, conns)
	elapsed := time.Since(start)
	if res != nil {
		t.Fatal("stalled run returned a result")
	}
	var we *mine.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error %T (%v), want *mine.WorkerError", err, err)
	}
	if we.Worker != 1 {
		t.Fatalf("failure attributed to worker %d, want the stalled worker 1", we.Worker)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("cause %v is not a timeout", err)
	}
	// Well within the deadline plus slack: the close path's Finish also
	// fails fast on the sticky error.
	if elapsed > 5*time.Second {
		t.Fatalf("stalled run took %v to fail", elapsed)
	}
}

// TestMidSuperstepDisconnect: a worker dying between setup and its first
// superstep reply fails the job cleanly and promptly with a typed error.
func TestMidSuperstepDisconnect(t *testing.T) {
	g, pred := pokecFixture(150, 3)
	o := mine.Options{
		K: 4, Sigma: 2, D: 2, Lambda: 0.5, N: 2,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.Defaults()
	ctx := mine.NewContext(g, pred.XLabel, o)

	// Worker 1 serves the handshake and the setup exchange (its frame 1,
	// SetupAck), then drops the connection in place of its first superstep
	// reply.
	addrs, _ := chaosFleet(t, 2, ServerOptions{}, func(worker, conn int) *netfault.Script {
		if worker == 1 {
			return &netfault.Script{SkipBytes: 5, CloseAtFrame: 2}
		}
		return nil
	})
	conns, err := DialFleet(addrs, DialOptions{StepTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(conns)

	res, err := Mine(ctx, pred, o, conns)
	if res != nil {
		t.Fatal("disconnected run returned a result")
	}
	var we *mine.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("error %T (%v), want *mine.WorkerError", err, err)
	}
	if we.Worker != 1 {
		t.Fatalf("failure attributed to worker %d, want the dropped worker 1", we.Worker)
	}
}

// TestDialFleetUnavailable: any unreachable worker makes the whole fleet
// unavailable, typed so callers can fall back to in-process mining.
func TestDialFleetUnavailable(t *testing.T) {
	good := startWorkers(t, 1, ServerOptions{})
	// A listener that is closed immediately: connection refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()

	conns, err := DialFleet(append(good, dead), DialOptions{DialTimeout: time.Second})
	if err == nil {
		CloseAll(conns)
		t.Fatal("partial fleet dialed successfully")
	}
	if !errors.Is(err, ErrFleetUnavailable) {
		t.Fatalf("error %v does not wrap ErrFleetUnavailable", err)
	}
}

// TestWorkerIdleTimeout: a service with an idle deadline drops a silent
// connection, and the coordinator sees the break on its next call.
func TestWorkerIdleTimeout(t *testing.T) {
	addrs := startWorkers(t, 1, ServerOptions{IdleTimeout: 100 * time.Millisecond})
	conns, err := DialFleet(addrs, DialOptions{StepTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(conns)
	time.Sleep(400 * time.Millisecond)
	if err := conns[0].Finish(); err == nil {
		t.Fatal("call on an idle-dropped connection succeeded")
	}
}

// TestArenasOffTCP pins, over real TCP, the result the arenas-off mode
// produced for this job at 04ded92 (the last commit that had it; sha256 of
// the fingerprint, local and fleet agreed): the workers' recycled lanes must
// still mine those bytes. The digest was re-recorded at 1961df2 when the
// fingerprint dropped IsoChecks and BisimSkips, with nothing else changed.
// The mine package's arena poison is not reachable from here; its loopback
// twin runs under it.
func TestArenasOffTCP(t *testing.T) {
	g, pred := pokecFixture(150, 3)
	o := mine.Options{
		K: 4, Sigma: 2, D: 2, Lambda: 0.5, N: 2,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.Defaults()
	ctx := mine.NewContext(g, pred.XLabel, o)
	const want = "3f49013382d0093cb9391c7d"
	digest := func(res *mine.Result) string {
		h := sha256.Sum256([]byte(fingerprint(res)))
		return hex.EncodeToString(h[:12])
	}
	if got := digest(mustMine(mine.DMineCtx(ctx, pred, o))); got != want {
		t.Fatalf("local digest %s, arenas-off golden %s", got, want)
	}

	addrs := startWorkers(t, 2, ServerOptions{})
	conns, err := DialFleet(addrs, DialOptions{StepTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(conns)
	res, err := Mine(ctx, pred, o, conns)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(res); got != want {
		t.Fatalf("fleet digest %s, arenas-off golden %s", got, want)
	}
}

// workerOpsEqual guards the ops lane: a quick sanity check that WorkerOps
// really crossed the wire (non-zero on a non-trivial run).
func TestWorkerOpsCrossWire(t *testing.T) {
	g, pred := pokecFixture(150, 3)
	o := mine.Options{
		K: 4, Sigma: 2, D: 2, Lambda: 0.5, N: 2,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.Defaults()
	ctx := mine.NewContext(g, pred.XLabel, o)
	addrs := startWorkers(t, 2, ServerOptions{})
	conns, err := DialFleet(addrs, DialOptions{StepTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer CloseAll(conns)
	res, err := Mine(ctx, pred, o, conns)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WorkerOps) != 2 || slices.Max(res.WorkerOps) == 0 {
		t.Fatalf("WorkerOps = %v, want two non-zero counts", res.WorkerOps)
	}
}
