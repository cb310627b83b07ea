package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
	"gpar/internal/mine/wire"
)

// hello is the handshake hello of a peer speaking the given version.
func hello(version byte) string { return wire.Magic + string([]byte{version}) }

// otherVersions are the peers one protocol step away in either direction.
var otherVersions = []byte{wire.Version - 1, wire.Version + 1}

// TestDialVersionMismatch: a worker answering another protocol version is a
// typed *wire.FrameError naming both versions, DialFleet reports the fleet
// unavailable, and the dialer spends exactly one TCP connection on the peer
// — there is no downgrade redial.
func TestDialVersionMismatch(t *testing.T) {
	for _, v := range otherVersions {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		// The peer reads the dialer's hello and answers with its own version.
		// An empty hello marks the test's own sentinel connection.
		accepted := make(chan string)
		go func() {
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				got := make([]byte, len(hello(v)))
				n, _ := io.ReadFull(c, got)
				io.WriteString(c, hello(v))
				c.Close()
				accepted <- string(got[:n])
			}
		}()
		addr := l.Addr().String()

		want := fmt.Sprintf("peer speaks version %d, this side speaks version %d", v, wire.Version)
		for _, dial := range []func() error{
			func() error {
				_, err := Dial(addr, DialOptions{DialTimeout: 2 * time.Second})
				var fe *wire.FrameError
				if !errors.As(err, &fe) {
					t.Errorf("Dial against v%d: error %T (%v), want a *wire.FrameError", v, err, err)
				}
				return err
			},
			func() error {
				_, err := DialFleet([]string{addr}, DialOptions{DialTimeout: 2 * time.Second})
				if !errors.Is(err, ErrFleetUnavailable) {
					t.Errorf("DialFleet against v%d: error %v does not wrap ErrFleetUnavailable", v, err)
				}
				return err
			},
		} {
			errc := make(chan error, 1)
			go func() { errc <- dial() }()
			if got := <-accepted; got != hello(wire.Version) {
				t.Fatalf("peer v%d read hello %q, want %q", v, got, hello(wire.Version))
			}
			if err := <-errc; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("dial against v%d: error %v, want it to say %q", v, err, want)
			}
			// Connections are accepted in order: once the sentinel comes out,
			// a second connection from the dial would have come out before it.
			sentinel, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			sentinel.Close()
			if got := <-accepted; got != "" {
				t.Fatalf("dial against v%d opened a second connection (hello %q)", v, got)
			}
		}
	}
}

// TestServeVersionMismatch: a coordinator proposing another protocol version
// gets the worker's own hello back and then a closed connection — one
// connection, no job.
func TestServeVersionMismatch(t *testing.T) {
	for _, v := range otherVersions {
		addrs, svs := chaosFleet(t, 1, ServerOptions{}, noFaults)

		c, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(c, hello(v)); err != nil {
			t.Fatal(err)
		}
		reply, err := io.ReadAll(c) // until the worker closes
		if err != nil {
			t.Fatalf("reading the worker's answer to v%d: %v", v, err)
		}
		if string(reply) != hello(wire.Version) {
			t.Fatalf("worker answered v%d with %q, want its own hello %q", v, reply, hello(wire.Version))
		}
		if st := svs[0].Stats(); st.TotalConns != 1 || st.Jobs != 0 {
			t.Fatalf("stats after a v%d coordinator: %+v, want 1 connection, 0 jobs", v, st)
		}
	}
}

// workerConn is a raw coordinator connection to a fresh one-worker fleet,
// past the handshake.
func workerConn(t *testing.T) (net.Conn, *Service) {
	t.Helper()
	addrs, svs := chaosFleet(t, 1, ServerOptions{}, noFaults)
	c, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.Handshake(c, true); err != nil {
		t.Fatal(err)
	}
	return c, svs[0]
}

// names is a symbol table as a setup frame carries it.
func names(g *graph.Graph) [][]byte {
	var out [][]byte
	for _, name := range g.Symbols().Names() {
		out = append(out, []byte(name))
	}
	return out
}

// expectRefused reads the worker's answer to a frame it must refuse: an
// Error frame that mentions want, then a closed connection. A worker that
// panicked instead would take the test binary down with it.
func expectRefused(t *testing.T, c net.Conn, want string) {
	t.Helper()
	typ, payload, _, err := wire.ReadFrame(c, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != wire.TypeError {
		t.Fatalf("reply frame type %d, want an Error frame", typ)
	}
	ef, err := wire.Decode[wire.ErrorFrame](payload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ef.Msg, want) {
		t.Fatalf("error frame says %q, want it to mention %q", ef.Msg, want)
	}
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the error frame: %v, want the connection closed", err)
	}
}

// TestSetupBadFragmentRefused: the worker decodes the fragment a setup frame
// carries. A body that does not decode, or one followed by trailing bytes,
// is answered with an Error frame, closes the connection and starts no job.
func TestSetupBadFragmentRefused(t *testing.T) {
	mctx, _, _ := chaosJob(150, 3, 1)
	frag := mctx.WireFragment(0)
	g, _ := pokecFixture(150, 3) // chaosJob's graph: the symbols its fragment's labels index
	for _, tc := range []struct {
		name     string
		fragment []byte
		want     string
	}{
		{"no fragment", nil, "magic"},
		{"trailing bytes", append(append([]byte(nil), frag...), 0), "1 trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, sv := workerConn(t)
			if err := wire.Send(c, wire.TypeJobSetup, &wire.JobSetup{Symbols: names(g), Fragment: tc.fragment}); err != nil {
				t.Fatal(err)
			}
			expectRefused(t, c, tc.want)
			if jobs := sv.Stats().Jobs; jobs != 0 {
				t.Fatalf("worker started %d jobs", jobs)
			}
		})
	}
}

// TestSetupDuplicateSymbolRefused: a symbol table that repeats a name would
// shift every later label against the coordinator's, so the worker refuses
// it as a *wire.FrameError — here with the repeat at the end, where the
// fragment still decodes and only the check stands between the setup and a
// job.
func TestSetupDuplicateSymbolRefused(t *testing.T) {
	mctx, pred, o := chaosJob(150, 3, 1)
	g, _ := pokecFixture(150, 3)
	syms := names(g)
	setup := &wire.JobSetup{
		D: o.D, EmbedCap: o.EmbedCap,
		XLabel: pred.XLabel, EdgeLabel: pred.EdgeLabel, YLabel: pred.YLabel,
		Symbols: append(syms, syms[0]), Fragment: mctx.WireFragment(0),
	}
	var fe *wire.FrameError
	if _, _, err := mine.NewWorkerRuntime(setup); !errors.As(err, &fe) {
		t.Fatalf("NewWorkerRuntime: error %T (%v), want a *wire.FrameError", err, err)
	}
	c, sv := workerConn(t)
	if err := wire.Send(c, wire.TypeJobSetup, setup); err != nil {
		t.Fatal(err)
	}
	expectRefused(t, c, "duplicate name")
	if jobs := sv.Stats().Jobs; jobs != 0 {
		t.Fatalf("worker started %d jobs", jobs)
	}
}

// TestHostileRoundRefused: a worker with a job running answers a Round
// frame it cannot use with an Error frame and closes the connection — a
// typed error, never a panic. The negative centre would otherwise index the
// worker's centre table.
func TestHostileRoundRefused(t *testing.T) {
	mctx, pred, o := chaosJob(150, 3, 1)
	g, _ := pokecFixture(150, 3)
	for _, tc := range []struct{ name, payload, want string }{
		{"negative centre", `{"Round":1,"Frontier":[{"ID":0},{"ID":1,"Parent":0,"QCenters":[3,-1]}]}`, "node ID -1 is negative"},
		{"unknown field", `{"Round":1,"Frontier":[],"Rounds":2}`, `unknown field "Rounds"`},
		{"trailing data", `{"Round":1,"Frontier":[]} {}`, "data after the JSON value"},
		{"wrong type", `{"Round":"1","Frontier":[]}`, "cannot unmarshal string"},
		{"inapplicable extension", `{"Round":1,"Frontier":[{"ID":0},{"ID":1,"Parent":0,"Ext":{"Src":5,"Close":-1}}]}`, "extension inapplicable"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := workerConn(t)
			setup := &wire.JobSetup{
				D: o.D, EmbedCap: o.EmbedCap,
				XLabel: pred.XLabel, EdgeLabel: pred.EdgeLabel, YLabel: pred.YLabel,
				Symbols: names(g), Fragment: mctx.WireFragment(0),
			}
			if err := wire.Send(c, wire.TypeJobSetup, setup); err != nil {
				t.Fatal(err)
			}
			if typ, _, _, err := wire.ReadFrame(c, nil, 0); err != nil || typ != wire.TypeSetupAck {
				t.Fatalf("setup answered with frame type %d, %v", typ, err)
			}
			if err := wire.WriteFrame(c, wire.TypeRound, []byte(tc.payload)); err != nil {
				t.Fatal(err)
			}
			expectRefused(t, c, tc.want)
		})
	}
}

// TestInvalidUTF8LabelsCrossWire: label names travel byte for byte. The
// first two names differ only in bytes that are not UTF-8, which a JSON
// string would turn into the same U+FFFD; the worker would then intern one
// label where the coordinator has two. Over TCP the run still equals
// DMineCtx.
func TestInvalidUTF8LabelsCrossWire(t *testing.T) {
	syms := graph.NewSymbols()
	syms.Intern("tag\xff")
	syms.Intern("tag\xfe")
	g := gen.Pokec(syms, gen.DefaultPokec(150, 3))
	pred := gen.PokecPredicates(syms)[0]
	o := mine.Options{K: 4, Sigma: 2, D: 2, Lambda: 0.5, N: 2, MaxEdges: 2, EmbedCap: 1 << 20}.Defaults()
	ctx := mine.NewContext(g, pred.XLabel, o)
	want := fingerprint(mustMine(mine.DMineCtx(ctx, pred, o)))
	res, err := dialAndMine(ctx, pred, o, startWorkers(t, o.N, ServerOptions{}), DialOptions{StepTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(res); got != want {
		t.Fatalf("distributed run differs from DMineCtx:\n got %s\nwant %s", got, want)
	}
}

// TestSlowlorisHandshakeDropped: a client that connects and never speaks is
// dropped within the handshake timeout — it cannot pin a worker goroutine.
func TestSlowlorisHandshakeDropped(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	sv := NewService(ServerOptions{HandshakeTimeout: 100 * time.Millisecond})
	go sv.Serve(l)

	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Write nothing. The service must close the connection on its own.
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("silent connection received bytes")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("service never dropped the silent connection")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("silent connection lingered %v past the handshake timeout", elapsed)
	}
	if got := sv.Stats().ActiveConns; got != 0 {
		t.Fatalf("activeConns = %d after drop, want 0", got)
	}
}
