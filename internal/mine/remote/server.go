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
	// HandshakeTimeout bounds how long an accepted connection may take to
	// complete the protocol handshake — a client that connects and never
	// speaks cannot pin a goroutine (slowloris). Default 10s; negative
	// disables.
	HandshakeTimeout time.Duration
}

// Service is one worker process's shared state: the handshake deadline and
// the counters behind Stats. Jobs share nothing else — each one's fragment
// arrives in its setup frame and is dropped at Finish.
type Service struct {
	handshake time.Duration // resolved HandshakeTimeout; 0 means none

	conns       atomic.Int64 // accepted, lifetime
	activeConns atomic.Int64
	jobs        atomic.Int64
	cancels     atomic.Int64 // jobs dropped by a coordinator Cancel frame
}

// NewService builds a worker service.
func NewService(opts ServerOptions) *Service {
	hs := opts.HandshakeTimeout
	if hs == 0 {
		hs = 10 * time.Second
	}
	return &Service{handshake: max(hs, 0)}
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
	sv.conns.Add(1)
	sv.activeConns.Add(1)

	var rt *mine.WorkerRuntime
	defer func() {
		if rt != nil {
			rt.Close()
		}
		sv.activeConns.Add(-1)
	}()

	// The coordinator (dialer) speaks first, under the handshake deadline;
	// past it a connection waits for its coordinator without one.
	var hsAt time.Time
	if sv.handshake > 0 {
		hsAt = time.Now().Add(sv.handshake)
	}
	if conn.SetDeadline(hsAt) != nil || wire.Handshake(conn, false) != nil {
		return
	}
	if conn.SetDeadline(time.Time{}) != nil {
		return
	}

	fail := func(err error) {
		_ = wire.Send(conn, wire.TypeError, &wire.ErrorFrame{Msg: err.Error()})
	}

	var buf []byte
	for {
		typ, payload, newBuf, err := wire.ReadFrame(conn, buf, wire.DefaultMaxFrame)
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
			setup, err := wire.Decode[wire.JobSetup](payload)
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
			if wire.Send(conn, wire.TypeSetupAck, ack) != nil {
				return
			}
		case wire.TypeRound:
			if rt == nil {
				fail(protocolErr("round frame outside a job"))
				return
			}
			rd, err := wire.Decode[wire.Round](payload)
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
			if wire.Send(conn, wire.TypeMessages, ms) != nil {
				return
			}
		case wire.TypeFinish:
			if rt != nil {
				rt.Close()
				rt = nil
			}
			if wire.Send(conn, wire.TypeFinish, nil) != nil {
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
			}
		default:
			fail(protocolErr("unexpected frame type"))
			return
		}
	}
}

// protocolErr builds the worker-side protocol violation error.
func protocolErr(msg string) error { return &wire.FrameError{Msg: msg} }
