// Package remote is what is left of distributed DMine: the names the
// benchmark module compiles against, and nothing behind them. The worker
// fleet is gone; mining runs in one process (mine.DMineCtx).
//
// Nothing crosses a connection: Serve returns at once, DialFleet dials
// nothing, and Mine runs mine.DMineCtx on the caller's context. The
// benchmark's mine.remote.loopback_s therefore times an in-process
// DMineCtx until the benchmark drops that row (ROADMAP item 1), and this
// package goes with it.
package remote

import (
	"net"
	"time"

	"gpar/internal/core"
	"gpar/internal/mine"
)

// ServerOptions configures nothing.
type ServerOptions struct{}

// DialOptions is accepted and ignored.
type DialOptions struct {
	StepTimeout time.Duration
}

// Conn stands for one worker address; it holds no connection.
type Conn struct{}

// Serve returns at once without accepting from l.
func Serve(l net.Listener, opts ServerOptions) error { return nil }

// DialFleet returns one Conn per address and dials nothing.
func DialFleet(addrs []string, opts DialOptions) ([]*Conn, error) {
	conns := make([]*Conn, len(addrs))
	for i := range conns {
		conns[i] = new(Conn)
	}
	return conns, nil
}

// CloseAll does nothing.
func CloseAll(conns []*Conn) {}

// Mine is mine.DMineCtx: the fleet is ignored.
func Mine(ctx *mine.Context, pred core.Predicate, opts mine.Options, conns []*Conn) (*mine.Result, error) {
	return mine.DMineCtx(ctx, pred, opts)
}
