// Command gparworker is the distributed-DMine worker daemon: it listens for
// coordinator connections (gparmine -workers) and hosts mining jobs over
// the binary wire protocol. Each job ships this worker its graph fragment
// in the setup frame, so the daemon needs no graph file, no configuration
// beyond an address, and no state between jobs.
//
// Usage:
//
//	gparworker -addr :9090 [-idle-timeout 5m] [-max-frame 268435456]
//	           [-healthz :9091] [-quiet]
//
// A fleet is one gparworker per fragment; the coordinator connects to all of
// them and drives BSP supersteps. -healthz serves the worker's counters
// (connections, jobs, cancels) as JSON over HTTP for fleet monitoring. See
// DESIGN.md ("Distributed DMine") for the protocol and failure semantics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpar/internal/mine/remote"
	"gpar/internal/mine/wire"
)

func main() {
	var (
		addr     = flag.String("addr", ":9090", "listen address")
		idle     = flag.Duration("idle-timeout", 5*time.Minute, "drop a connection idle this long (0 = never)")
		maxFrame = flag.Int("max-frame", wire.DefaultMaxFrame, "largest accepted frame in bytes")
		healthz  = flag.String("healthz", "", "serve GET /healthz and /stats on this address (e.g. :9091)")
		quiet    = flag.Bool("quiet", false, "suppress per-connection logging")
	)
	flag.Parse()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	opts := remote.ServerOptions{
		MaxFrame:    *maxFrame,
		IdleTimeout: *idle,
	}
	if !*quiet {
		opts.Logf = log.Printf
	}
	sv := remote.NewService(opts)
	log.Printf("gparworker: serving on %s", l.Addr())

	if *healthz != "" {
		hl, err := net.Listen("tcp", *healthz)
		if err != nil {
			fatal(err)
		}
		mux := http.NewServeMux()
		stats := func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(map[string]any{"status": "ok", "worker": sv.Stats()})
		}
		mux.HandleFunc("GET /healthz", stats)
		mux.HandleFunc("GET /stats", stats)
		log.Printf("gparworker: health endpoint on %s", hl.Addr())
		go func() {
			if err := http.Serve(hl, mux); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("gparworker: healthz: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- sv.Serve(l) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		log.Printf("gparworker: received %v; closing", sig)
		l.Close()
		// In-flight jobs on accepted connections run to completion or until
		// the coordinator disconnects; only the accept loop stops.
		if err := <-errc; err != nil && !errors.Is(err, net.ErrClosed) {
			log.Printf("gparworker: %v", err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gparworker:", err)
	os.Exit(1)
}
