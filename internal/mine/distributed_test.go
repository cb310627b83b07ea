package mine

import (
	"errors"
	"fmt"
	"testing"

	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine/wire"
)

// loopbackConn drives a WorkerRuntime through the full wire codec path —
// every frame is encoded to bytes and decoded back, exactly as over a
// socket — without a socket. The TCP layer on top of this is
// internal/mine/remote; this pins the protocol and runtime semantics.
type loopbackConn struct {
	rt *WorkerRuntime
}

func (c *loopbackConn) Setup(s *wire.JobSetup) (*wire.SetupAck, error) {
	dec, err := wire.DecodeJobSetup(s.Append(nil))
	if err != nil {
		return nil, err
	}
	rt, ack, err := NewWorkerRuntime(dec)
	if err != nil {
		return nil, err
	}
	c.rt = rt
	return wire.DecodeSetupAck(ack.Append(nil))
}

func (c *loopbackConn) Mine(rd *wire.Round) (*wire.Messages, error) {
	dec, err := wire.DecodeRound(rd.Append(nil))
	if err != nil {
		return nil, err
	}
	ms, err := c.rt.Round(dec)
	if err != nil {
		return nil, err
	}
	// Encoding before returning is the contract: the reply aliases
	// runtime-owned storage the next Round overwrites.
	return wire.DecodeMessages(ms.Append(nil))
}

func (c *loopbackConn) Finish() error {
	if c.rt != nil {
		c.rt.Close()
		c.rt = nil
	}
	return nil
}

func sumOps(res *Result) (total int64) {
	for _, op := range res.WorkerOps {
		total += op
	}
	return total
}

func loopbackConns(n int) []WorkerConn {
	conns := make([]WorkerConn, n)
	for i := range conns {
		conns[i] = &loopbackConn{}
	}
	return conns
}

// TestDMineDistributedMatchesLocal is the distributed engine's differential
// contract: for every worker count, mining over wire-decoded remote
// runtimes is byte-identical to the in-process engine on the same context.
// The two lay the centers out differently (d-neighbourhood fragments
// against chunks of the candidate list), so the per-worker op counts differ
// while their total, a sum of per-center work, does not.
func TestDMineDistributedMatchesLocal(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(300, 5))
	pred := gen.PokecPredicates(syms)[0]
	base := Options{
		K: 6, Sigma: 3, D: 2, Lambda: 0.5,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}

	for _, n := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o := base
			o.N = n
			o = o.Defaults()
			ctx := NewContext(g, pred.XLabel, o)
			want := must(DMineCtx(ctx, pred, o))

			got, err := DMineDistributed(ctx, pred, o, loopbackConns(n))
			if err != nil {
				t.Fatal(err)
			}
			if fw, fg := fingerprint(want), fingerprint(got); fw != fg {
				t.Fatalf("distributed result differs from local:\n--- local ---\n%s--- distributed ---\n%s", fw, fg)
			}
			if len(got.WorkerOps) != n || sumOps(got) != sumOps(want) {
				t.Fatalf("WorkerOps = %v, want %d counts with the total of %v", got.WorkerOps, n, want.WorkerOps)
			}
		})
	}
}

// TestDMineDistributedArenasOff pins the arenas-off golden across the wire:
// the remote runtimes' recycled lanes and the coordinator's shard arenas
// must reproduce what the allocating mode mined on both sides of it.
func TestDMineDistributedArenasOff(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(200, 9))
	pred := gen.PokecPredicates(syms)[0]
	o := Options{
		K: 6, Sigma: 2, D: 2, Lambda: 0.5, N: 3,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.Defaults()
	ctx := NewContext(g, pred.XLabel, o)
	want := arenasOffGoldens["loopback"]
	if got := digest(must(DMineCtx(ctx, pred, o))); got != want {
		t.Errorf("local digest %s, arenas-off golden %s", got, want)
	}
	if got := digest(must(DMineDistributed(ctx, pred, o, loopbackConns(3)))); got != want {
		t.Errorf("loopback fleet digest %s, arenas-off golden %s", got, want)
	}
}

// TestDMineDistributedEmbedCap covers the truncating EmbedCap path: remote
// workers enumerate embeddings canonically from their decoded fragments,
// so even a cap of 1 keeps results layout- and transport-independent.
func TestDMineDistributedEmbedCap(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(200, 9))
	pred := gen.PokecPredicates(syms)[0]
	o := Options{
		K: 6, Sigma: 2, D: 2, Lambda: 0.5, N: 2,
		MaxEdges: 2, EmbedCap: 1,
	}.Defaults()
	ctx := NewContext(g, pred.XLabel, o)
	want := must(DMineCtx(ctx, pred, o))
	got, err := DMineDistributed(ctx, pred, o, loopbackConns(2))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatal("EmbedCap=1 distributed result differs from local")
	}
	if got.Capped == 0 || got.Capped != want.Capped {
		t.Fatalf("Capped = %d over the wire, %d in process; want equal and non-zero", got.Capped, want.Capped)
	}
}

// failingConn fails every call after a configurable number of successful
// Mine supersteps.
type failingConn struct {
	inner    loopbackConn
	mineOK   int
	failWith error
}

func (c *failingConn) Setup(s *wire.JobSetup) (*wire.SetupAck, error) {
	if c.mineOK < 0 {
		return nil, c.failWith
	}
	return c.inner.Setup(s)
}

func (c *failingConn) Mine(rd *wire.Round) (*wire.Messages, error) {
	if c.mineOK == 0 {
		return nil, c.failWith
	}
	c.mineOK--
	return c.inner.Mine(rd)
}

func (c *failingConn) Finish() error { return c.inner.Finish() }

// TestDMineDistributedWorkerFailure pins the failure contract: a worker
// failing mid-run surfaces as a *WorkerError naming that worker, the run
// returns no result, and no panic or hang occurs. Setup-phase and
// superstep-phase failures both count.
func TestDMineDistributedWorkerFailure(t *testing.T) {
	syms := graph.NewSymbols()
	g := gen.Pokec(syms, gen.DefaultPokec(200, 9))
	pred := gen.PokecPredicates(syms)[0]
	o := Options{
		K: 6, Sigma: 2, D: 2, Lambda: 0.5, N: 3,
		MaxEdges: 2, EmbedCap: 1 << 20,
	}.Defaults()
	ctx := NewContext(g, pred.XLabel, o)

	for _, tc := range []struct {
		name   string
		mineOK int
	}{
		{"setup", -1},
		{"first superstep", 0},
		{"second superstep", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cause := errors.New("connection reset")
			conns := loopbackConns(3)
			conns[1] = &failingConn{mineOK: tc.mineOK, failWith: cause}
			res, err := DMineDistributed(ctx, pred, o, conns)
			if res != nil {
				t.Fatal("failed run returned a result")
			}
			var we *WorkerError
			if !errors.As(err, &we) {
				t.Fatalf("error %T (%v), want *WorkerError", err, err)
			}
			if we.Worker != 1 {
				t.Fatalf("failure attributed to worker %d, want 1", we.Worker)
			}
			if !errors.Is(err, cause) {
				t.Fatalf("error chain %v does not unwrap to the cause", err)
			}
		})
	}
}

// TestDMineDistributedConnCountMismatch: the connection count must match
// the context's fragment count exactly.
func TestDMineDistributedConnCountMismatch(t *testing.T) {
	syms := graph.NewSymbols()
	f := gen.G1(syms)
	pred := gen.VisitPredicate(syms)
	o := baseOpts()
	o.N = 2
	o = o.Defaults()
	ctx := NewContext(f.G, pred.XLabel, o)
	if _, err := DMineDistributed(ctx, pred, o, loopbackConns(3)); err == nil {
		t.Fatal("mismatched connection count accepted")
	}
}
