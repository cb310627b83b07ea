// Package remote runs distributed DMine over TCP: a worker service (Serve)
// that hosts mine.WorkerRuntime jobs behind the wire protocol, and the
// coordinator's client side — Conn, a mine.WorkerConn over one TCP
// connection, DialFleet to bring up a full worker fleet, and Mine as the
// one-call entry point. Both ends speak the wire package's one protocol
// version: Dial opens one TCP connection and a peer of any other version is
// a typed handshake error on both sides. A job's fragment travels inline in
// its setup frame; a worker keeps nothing once the job finishes.
//
// Failure semantics are strict and typed: dial-phase failures wrap
// ErrFleetUnavailable (the caller can fall back to in-process mining,
// nothing has started); any failure after setup — a worker crash, a stall
// past the per-step deadline, a protocol violation — surfaces from Mine as
// a *mine.WorkerError naming the worker, the job installs nothing, and the
// connection is dead (a Conn's error is sticky). Connections that complete
// a job stay open and serve subsequent jobs.
package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gpar/internal/core"
	"gpar/internal/mine"
	"gpar/internal/mine/wire"
)

// ErrFleetUnavailable marks dial-phase failures: no worker has been touched,
// so falling back to in-process mining is safe and clean.
var ErrFleetUnavailable = errors.New("remote: fleet unavailable")

// RemoteError is a failure the worker itself reported in an Error frame
// (fragment decode failure, inapplicable extension, job-state violation) —
// as opposed to transport errors, which arrive as net or wire errors.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "remote: worker reported: " + e.Msg }

// DialOptions tunes the coordinator's client side. The zero value means
// defaults.
type DialOptions struct {
	// DialTimeout bounds TCP connect plus handshake per worker (default 5s).
	DialTimeout time.Duration
	// StepTimeout bounds each request/reply exchange: one superstep of one
	// worker must answer within it or the job fails (default 2m). This is
	// the stalled-worker guillotine the coordinator relies on.
	StepTimeout time.Duration
}

func (o DialOptions) defaults() DialOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.StepTimeout <= 0 {
		o.StepTimeout = 2 * time.Minute
	}
	return o
}

// Conn is one worker connection as the coordinator drives it. It implements
// mine.WorkerConn; calls are sequential per Conn (the distributed engine
// guarantees it). Errors are sticky: after any failure every later call
// fails immediately, so a broken worker cannot half-participate in a
// subsequent job. Cancel is the one concurrent entry point — it may be
// called from any goroutine while an exchange is in flight.
type Conn struct {
	c    net.Conn
	opts DialOptions
	buf  []byte // frame read buffer, reused
	err  error  // sticky failure; written only by the driving goroutine

	// cancelMu guards the cancellation handshake between the driving
	// goroutine and a concurrent Cancel: the canceled flag, the inflight
	// flag, and — critically — every SetDeadline call, so a send/recv
	// arming a fresh step deadline can never overwrite Cancel's immediate
	// one and resurrect a stall.
	cancelMu sync.Mutex
	canceled bool
	inflight bool // an exchange holds the socket (send sent, reply pending)
}

// errCanceled is the sticky verdict of a canceled connection. The
// coordinator maps any engine failure under a done context to
// *mine.CanceledError, so callers rarely see this directly.
var errCanceled = errors.New("remote: job canceled")

// Dial connects to one worker and exchanges the handshake, over exactly one
// TCP connection. TCP connect failures come back as net errors, handshake
// breakdowns — a peer of another protocol version included — as
// *wire.FrameError.
func Dial(addr string, opts DialOptions) (*Conn, error) {
	opts = opts.defaults()
	nc, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	err = nc.SetDeadline(time.Now().Add(opts.DialTimeout))
	if err == nil {
		err = wire.Handshake(nc, true)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("%s: %w", addr, err)
	}
	return &Conn{c: nc, opts: opts}, nil
}

// fail records a sticky failure and returns it.
func (c *Conn) fail(err error) error {
	c.err = err
	return err
}

// armDeadline sets a fresh step deadline and marks an exchange in flight,
// refusing once the connection has been canceled — a canceled connection's
// immediate deadline must never be re-armed.
func (c *Conn) armDeadline() error {
	c.cancelMu.Lock()
	defer c.cancelMu.Unlock()
	if c.canceled {
		return errCanceled
	}
	c.inflight = true
	return c.c.SetDeadline(time.Now().Add(c.opts.StepTimeout))
}

// endExchange marks the socket idle again (a Cancel arriving now sends the
// wire frame instead of slamming the deadline mid-read).
func (c *Conn) endExchange() {
	c.cancelMu.Lock()
	c.inflight = false
	c.cancelMu.Unlock()
}

// send writes one frame carrying v under a fresh step deadline.
func (c *Conn) send(typ byte, v any) error {
	if c.err != nil {
		return c.err
	}
	if err := c.armDeadline(); err != nil {
		return c.fail(err)
	}
	if err := wire.Send(c.c, typ, v); err != nil {
		return c.fail(err)
	}
	return nil
}

// recv reads one frame under a fresh step deadline, translating
// worker-reported Error frames. The payload aliases the connection's read
// buffer — consume it before the next recv.
func (c *Conn) recv() (byte, []byte, error) {
	if c.err != nil {
		return 0, nil, c.err
	}
	if err := c.armDeadline(); err != nil {
		return 0, nil, c.fail(err)
	}
	typ, reply, buf, err := wire.ReadFrame(c.c, c.buf, wire.DefaultMaxFrame)
	c.buf = buf
	c.endExchange()
	if err != nil {
		return 0, nil, c.fail(err)
	}
	if typ == wire.TypeError {
		ef, derr := wire.Decode[wire.ErrorFrame](reply)
		if derr != nil {
			return 0, nil, c.fail(derr)
		}
		return 0, nil, c.fail(&RemoteError{Msg: ef.Msg})
	}
	return typ, reply, nil
}

// roundTrip sends one frame and reads the reply, which must have the given
// type.
func (c *Conn) roundTrip(reqType byte, req any, wantType byte) ([]byte, error) {
	if err := c.send(reqType, req); err != nil {
		return nil, err
	}
	typ, reply, err := c.recv()
	if err != nil {
		return nil, err
	}
	if typ != wantType {
		return nil, c.fail(fmt.Errorf("remote: reply frame type %d, want %d", typ, wantType))
	}
	return reply, nil
}

// Setup implements mine.WorkerConn: the setup frame carries the worker's
// fragment, and the worker answers with its round-0 counts.
func (c *Conn) Setup(s *wire.JobSetup) (*wire.SetupAck, error) {
	reply, err := c.roundTrip(wire.TypeJobSetup, s, wire.TypeSetupAck)
	if err != nil {
		return nil, err
	}
	ack, err := wire.Decode[wire.SetupAck](reply)
	if err != nil {
		return nil, c.fail(err)
	}
	return ack, nil
}

// Mine implements mine.WorkerConn.
func (c *Conn) Mine(rd *wire.Round) (*wire.Messages, error) {
	reply, err := c.roundTrip(wire.TypeRound, rd, wire.TypeMessages)
	if err != nil {
		return nil, err
	}
	ms, err := wire.Decode[wire.Messages](reply)
	if err != nil {
		return nil, c.fail(err)
	}
	return ms, nil
}

// Finish implements mine.WorkerConn: it ends the job and leaves the
// connection ready for the next one (the worker echoes the frame).
func (c *Conn) Finish() error {
	_, err := c.roundTrip(wire.TypeFinish, nil, wire.TypeFinish)
	return err
}

// Cancel implements mine.CancelableConn: it abandons whatever job is in
// flight on this connection, from any goroutine. If an exchange holds the
// socket, the deadline is slammed to now so the blocked read or write
// returns immediately (the worker notices the dead connection via its own
// read deadline); if the socket is idle, a Cancel frame is sent first so
// the worker drops its job state promptly. Either way the connection is
// finished: send and recv refuse to re-arm the deadline once canceled, so
// the failure is sticky and the coordinator — which asked for the abort —
// reports it as a *mine.CanceledError.
func (c *Conn) Cancel() {
	c.cancelMu.Lock()
	defer c.cancelMu.Unlock()
	if c.canceled {
		return
	}
	c.canceled = true
	if !c.inflight {
		// Best-effort: a short write deadline keeps a wedged socket from
		// blocking the canceler, and a failure just means the worker waits
		// out its read deadline instead.
		if c.c.SetDeadline(time.Now().Add(time.Second)) == nil {
			_ = wire.WriteFrame(c.c, wire.TypeCancel, nil)
		}
	}
	_ = c.c.SetDeadline(time.Now())
}

// Close tears the connection down. Safe after errors.
func (c *Conn) Close() error {
	if c.err == nil {
		c.err = errors.New("remote: connection closed")
	}
	return c.c.Close()
}

// DialFleet connects to every worker address in parallel. On any failure it
// closes whatever connected and returns an error wrapping
// ErrFleetUnavailable — all-or-nothing, so a partial fleet never mines.
func DialFleet(addrs []string, opts DialOptions) ([]*Conn, error) {
	conns := make([]*Conn, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			conns[i], errs[i] = Dial(addr, opts)
		}(i, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			CloseAll(conns)
			return nil, fmt.Errorf("%w: %v", ErrFleetUnavailable, err)
		}
	}
	return conns, nil
}

// CloseAll closes every non-nil connection.
func CloseAll(conns []*Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// Mine runs one distributed mining job over an established fleet: it is
// mine.DMineDistributed with the []*Conn plumbing. The fleet remains usable
// for further jobs when the returned error is nil.
func Mine(ctx *mine.Context, pred core.Predicate, opts mine.Options, conns []*Conn) (*mine.Result, error) {
	wcs := make([]mine.WorkerConn, len(conns))
	for i, c := range conns {
		wcs[i] = c
	}
	return mine.DMineDistributed(ctx, pred, opts, wcs)
}
