package remote

import (
	"net"
	"sync/atomic"
	"time"

	"gpar/internal/mine"
	"gpar/internal/mine/wire"
)

// ServerOptions tunes a worker service. The zero value means defaults.
type ServerOptions struct {
	// MaxFrame bounds accepted frame sizes (default wire.DefaultMaxFrame).
	MaxFrame int
	// IdleTimeout, when positive, bounds how long a connection may sit
	// without traffic — between jobs or mid-job — before the worker drops
	// it, so a dead coordinator cannot pin worker state forever. 0 means
	// no deadline.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds how long an accepted connection may take to
	// complete the protocol handshake, even when IdleTimeout is 0 — a
	// client that connects and never speaks cannot pin a goroutine
	// (slowloris). Default 10s; negative disables.
	HandshakeTimeout time.Duration
	// Logf, when non-nil, receives one line per connection-level event
	// (accepted, job started, failed, closed).
	Logf func(format string, args ...any)
}

func (o ServerOptions) defaults() ServerOptions {
	if o.MaxFrame <= 0 {
		o.MaxFrame = wire.DefaultMaxFrame
	}
	if o.HandshakeTimeout == 0 {
		o.HandshakeTimeout = 10 * time.Second
	}
	return o
}

func (o *ServerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Service is one worker process's shared state: the options and the
// counters behind Stats. Jobs share nothing else — each one's fragment
// arrives in its setup frame and is dropped at Finish.
type Service struct {
	opts ServerOptions

	conns       atomic.Int64 // accepted, lifetime
	activeConns atomic.Int64
	jobs        atomic.Int64
	cancels     atomic.Int64 // jobs dropped by a coordinator Cancel frame
}

// NewService builds a worker service.
func NewService(opts ServerOptions) *Service {
	return &Service{opts: opts.defaults()}
}

// ServiceStats is a point-in-time snapshot of a worker's counters.
type ServiceStats struct {
	ActiveConns int64 `json:"activeConns"`
	TotalConns  int64 `json:"totalConns"`
	Jobs        int64 `json:"jobs"`
	Cancels     int64 `json:"cancels"`
}

// Stats snapshots the service counters.
func (sv *Service) Stats() ServiceStats {
	return ServiceStats{
		ActiveConns: sv.activeConns.Load(),
		TotalConns:  sv.conns.Load(),
		Jobs:        sv.jobs.Load(),
		Cancels:     sv.cancels.Load(),
	}
}

// Serve accepts coordinator connections on l and hosts mining jobs until
// the listener closes (the Accept error is returned). Each connection runs
// its own goroutine and serves jobs sequentially: JobSetup → Rounds →
// Finish, repeated. Any job-level failure is reported in an Error frame and
// the connection is closed — a broken job never limps along.
func (sv *Service) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go sv.serveConn(conn)
	}
}

// Serve runs a one-off service over l (see Service.Serve).
func Serve(l net.Listener, opts ServerOptions) error {
	return NewService(opts).Serve(l)
}

// serveConn is one coordinator connection's lifetime.
func (sv *Service) serveConn(conn net.Conn) {
	defer conn.Close()
	opts := &sv.opts
	peer := conn.RemoteAddr()
	opts.logf("remote: %v connected", peer)
	sv.conns.Add(1)
	sv.activeConns.Add(1)

	var rt *mine.WorkerRuntime
	defer func() {
		if rt != nil {
			rt.Close()
		}
		sv.activeConns.Add(-1)
		opts.logf("remote: %v closed", peer)
	}()

	deadline := func() bool {
		var t time.Time
		if opts.IdleTimeout > 0 {
			t = time.Now().Add(opts.IdleTimeout)
		}
		return conn.SetDeadline(t) == nil
	}
	// The coordinator (dialer) speaks first. The handshake always runs under
	// a deadline — even with no idle timeout, a silent client cannot pin this
	// goroutine.
	hsDeadline := opts.HandshakeTimeout
	if hsDeadline < 0 {
		hsDeadline = 0
	}
	if opts.IdleTimeout > 0 && (hsDeadline == 0 || opts.IdleTimeout < hsDeadline) {
		hsDeadline = opts.IdleTimeout
	}
	var hsAt time.Time
	if hsDeadline > 0 {
		hsAt = time.Now().Add(hsDeadline)
	}
	if conn.SetDeadline(hsAt) != nil {
		return
	}
	if err := wire.Handshake(conn, false); err != nil {
		opts.logf("remote: %v: %v", peer, err)
		return
	}

	fail := func(err error) {
		opts.logf("remote: %v: %v", peer, err)
		ef := wire.ErrorFrame{Msg: err.Error()}
		_ = wire.WriteFrame(conn, wire.TypeError, ef.Append(nil))
	}

	var buf, enc []byte
	for {
		if !deadline() {
			return
		}
		typ, payload, newBuf, err := wire.ReadFrame(conn, buf, opts.MaxFrame)
		if err != nil {
			return // peer gone or protocol breakdown; nothing to answer
		}
		buf = newBuf
		switch typ {
		case wire.TypeJobSetup:
			if rt != nil {
				fail(protocolErr("job setup while a job is active"))
				return
			}
			setup, err := wire.DecodeJobSetup(payload)
			if err != nil {
				fail(err)
				return
			}
			newRT, ack, err := mine.NewWorkerRuntime(setup)
			if err != nil {
				fail(err)
				return
			}
			rt = newRT
			sv.jobs.Add(1)
			opts.logf("remote: %v: job %d as worker %d", peer, setup.JobID, setup.Worker)
			enc = ack.Append(enc[:0])
			if wire.WriteFrame(conn, wire.TypeSetupAck, enc) != nil {
				return
			}
		case wire.TypeRound:
			if rt == nil {
				fail(protocolErr("round frame outside a job"))
				return
			}
			rd, err := wire.DecodeRound(payload)
			if err != nil {
				fail(err)
				return
			}
			ms, err := rt.Round(rd)
			if err != nil {
				fail(err)
				return
			}
			// Encode before the next frame read: the reply aliases
			// runtime-owned storage the next Round overwrites.
			enc = ms.Append(enc[:0])
			if wire.WriteFrame(conn, wire.TypeMessages, enc) != nil {
				return
			}
		case wire.TypeFinish:
			if rt != nil {
				rt.Close()
				rt = nil
			}
			if wire.WriteFrame(conn, wire.TypeFinish, nil) != nil {
				return
			}
		case wire.TypeCancel:
			// The coordinator abandoned the job. Drop the runtime (its arenas
			// return to the pool) and answer nothing — the coordinator has
			// already stopped listening for this job; the connection stays up
			// for the next JobSetup. Legal between jobs too (a cancel can race
			// a job's natural end).
			if rt != nil {
				rt.Close()
				rt = nil
				sv.cancels.Add(1)
				opts.logf("remote: %v: job canceled by coordinator", peer)
			}
		default:
			fail(protocolErr("unexpected frame type"))
			return
		}
	}
}

// protocolErr builds the worker-side protocol violation error.
func protocolErr(msg string) error { return &wire.FrameError{Msg: msg} }
