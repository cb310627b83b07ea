package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

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
// connection, no job — and the worker logs the typed error naming both
// versions.
func TestServeVersionMismatch(t *testing.T) {
	for _, v := range otherVersions {
		logs := make(chan string, 16) // connected, handshake error, closed: 3 lines
		addrs, svs := chaosFleet(t, 1, ServerOptions{Logf: func(format string, args ...any) {
			logs <- fmt.Sprintf(format, args...)
		}}, noFaults)

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
		want := fmt.Sprintf("wire: handshake: peer speaks version %d, this side speaks version %d", v, wire.Version)
		for line := range logs {
			if strings.Contains(line, want) {
				break
			}
			if strings.Contains(line, "closed") {
				t.Fatalf("worker closed the v%d connection without logging %q", v, want)
			}
		}
		if st := svs[0].Stats(); st.TotalConns != 1 || st.Jobs != 0 {
			t.Fatalf("stats after a v%d coordinator: %+v, want 1 connection, 0 jobs", v, st)
		}
	}
}

// TestSetupBadFragmentRefused: the worker decodes the fragment a setup frame
// carries. A body that does not decode, or one followed by trailing bytes,
// is answered with an Error frame, closes the connection and starts no job.
func TestSetupBadFragmentRefused(t *testing.T) {
	mctx, _, _ := chaosJob(150, 3, 1)
	frag := mctx.WireFragment(0)
	for _, tc := range []struct {
		name     string
		fragment []byte
		want     string
	}{
		{"no fragment", nil, "magic"},
		{"trailing bytes", append(append([]byte(nil), frag...), 0), "1 trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, svs := chaosFleet(t, 1, ServerOptions{}, noFaults)
			c, err := net.Dial("tcp", addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			if err := wire.Handshake(c, true); err != nil {
				t.Fatal(err)
			}
			setup := wire.JobSetup{Fragment: tc.fragment}
			if err := wire.WriteFrame(c, wire.TypeJobSetup, setup.Append(nil)); err != nil {
				t.Fatal(err)
			}
			typ, payload, _, err := wire.ReadFrame(c, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if typ != wire.TypeError {
				t.Fatalf("reply frame type %d, want an Error frame", typ)
			}
			ef, err := wire.DecodeError(payload)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(ef.Msg, tc.want) {
				t.Fatalf("error frame says %q, want it to mention %q", ef.Msg, tc.want)
			}
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("after the error frame: %v, want the connection closed", err)
			}
			if jobs := svs[0].Stats().Jobs; jobs != 0 {
				t.Fatalf("worker started %d jobs", jobs)
			}
		})
	}
}

// TestSlowlorisHandshakeDropped: a client that connects and never speaks is
// dropped within the handshake timeout even when IdleTimeout is 0 — it
// cannot pin a worker goroutine.
func TestSlowlorisHandshakeDropped(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	sv := NewService(ServerOptions{IdleTimeout: 0, HandshakeTimeout: 100 * time.Millisecond})
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
