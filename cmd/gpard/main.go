// Command gpard is the GPAR serving daemon: it loads a data graph and a
// GPAR rule set and serves entity-identification queries over HTTP until
// terminated — the "mine once, match many" serving shape of the paper's
// use cases. See internal/serve for the subsystem and DESIGN.md for the
// endpoint reference.
//
// Usage:
//
//	gpard -addr :8080 -graph graph.txt -rules rules.txt
//	gpard -addr :8080 -graph graph.txt -pred "user,like_music,music:Disco"
//	gpard -addr :8080 -data-dir /var/lib/gpard -wal-sync always
//
// Graph files come from gpargen, rule files from gparmine or gpargen. With
// -pred and no -rules the daemon starts with an empty rule set; POST
// /v1/mine with {"install":true} mines one as a job and installs it.
//
// With -data-dir the daemon is durable: every snapshot swap is
// checkpointed to a checksummed snapshot file and every accepted delta
// batch is appended to a write-ahead log before it is acknowledged
// (-wal-sync controls the fsync policy: always | none). On
// restart, if the directory holds a recoverable state, the daemon
// recovers it — newest valid snapshot plus WAL replay — and the
// -graph/-rules/-pred flags are skipped; corrupt files are
// quarantined as *.corrupt, never deleted. See DESIGN.md, "Durability &
// crash recovery".
//
// Endpoints:
//
//	POST /v1/identify     {"rules":[...keys], "eta":1.5}  → Σ(x,G,η)
//	GET  /v1/rules        browse the resident rule set
//	PUT  /v1/rules        hot-swap the rule set (core rule text format)
//	POST /v1/graph/delta  apply a mutation batch as a new snapshot generation
//	POST /v1/mine         async DMine job; {"install":true} hot-swaps on success
//	GET  /v1/jobs[/id]    job status
//	GET  /healthz         liveness + generation
//	GET  /stats           cache / batcher / request / delta counters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpar/internal/core"
	"gpar/internal/graph"
	"gpar/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		graphIn  = flag.String("graph", "", "input graph file (gpargen's format)")
		rulesIn  = flag.String("rules", "", "input rules file")
		predStr  = flag.String("pred", "", "predicate xLabel,edgeLabel,yLabel: start with an empty rule set (exclusive with -rules)")
		workers  = flag.Int("n", 4, "identify fan-out: candidate chunks per rule evaluation")
		pool     = flag.Int("pool", 0, "matching concurrency bound (0 = GOMAXPROCS minus the mine gate's ceil(GOMAXPROCS/2))")
		cache    = flag.Int("cache", 256, "match-set cache capacity")
		reqTO    = flag.Duration("request-timeout", 0, "server-side identify deadline (0 = 30s, negative = off)")
		maxQ     = flag.Int("max-queue", 0, "admission queue depth before shedding 429 (0 = 64, negative = off)")
		queueTO  = flag.Duration("queue-timeout", 0, "longest an admitted request may wait for a slot (0 = 1s)")
		compactN = flag.Int("compact-threshold", 0, "overlay ops at which a delta batch compacts the overlay before it answers (0 = off)")
		dataDir  = flag.String("data-dir", "", "durable data directory: checkpoints snapshots + a delta WAL and recovers from them at startup")
		walSync  = flag.String("wal-sync", "always", "WAL fsync policy for -data-dir: always | none")
	)
	flag.Parse()
	bootStart := time.Now()

	cfg := serve.Config{
		Workers:          *workers,
		PoolSize:         *pool,
		CacheCap:         *cache,
		RequestTimeout:   *reqTO,
		MaxQueue:         *maxQ,
		QueueTimeout:     *queueTO,
		CompactThreshold: *compactN,
	}
	srv := serve.New(cfg)

	// Recovery-first boot: with -data-dir, state on disk wins over the
	// graph/rule flags — a restart resumes the exact pre-crash generation
	// without any re-ingest. The flags only matter for the very first start
	// against an empty directory.
	recovered := false
	if *dataDir != "" {
		if err := srv.EnablePersistence(serve.PersistOptions{
			Dir:  *dataDir,
			Sync: serve.SyncPolicy(*walSync),
		}); err != nil {
			fatal(err)
		}
		rep, err := srv.Recover()
		if err != nil {
			fatal(err)
		}
		if rep.Recovered {
			recovered = true
			snap := srv.Snapshot()
			log.Printf("recovered generation %d from %s: snapshot %s + %d WAL records (%d truncated, %d quarantined)",
				rep.Generation, *dataDir, rep.Snapshot, rep.Replayed, rep.Truncated, len(rep.Quarantined))
			log.Printf("graph: %d nodes, %d edges; %d rules", snap.G.NumNodes(), snap.G.NumEdges(), len(snap.Rules))
		} else {
			log.Printf("data dir %s holds no snapshot; loading initial state from flags", *dataDir)
		}
	}

	if !recovered {
		if err := load(srv, *graphIn, *rulesIn, *predStr); err != nil {
			fatal(err)
		}
	}
	log.Printf("snapshot generation %d: serving on %s (startup %s)",
		srv.Generation(), *addr, time.Since(bootStart).Round(time.Millisecond))

	// The listener defends itself too: a client that trickles its headers,
	// never reads its response, or parks an idle keep-alive cannot pin a
	// connection forever. WriteTimeout outlasts the identify deadline so the
	// server, not the socket, decides how a slow evaluation ends.
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		log.Printf("received %v; draining", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("job drain: %v", err)
	}
	log.Printf("bye")
}

// load installs the first snapshot: the -graph file with the -rules file's
// rules, or with an empty rule set for the -pred predicate.
func load(srv *serve.Server, graphIn, rulesIn, predStr string) error {
	switch {
	case graphIn == "":
		return errors.New("-graph is required")
	case (rulesIn == "") == (predStr == ""):
		return errors.New("exactly one of -rules or -pred is required")
	}
	syms := graph.NewSymbols()
	f, err := os.Open(graphIn)
	if err != nil {
		return err
	}
	g, err := graph.Read(f, syms)
	f.Close()
	if err != nil {
		return fmt.Errorf("read %s: %w", graphIn, err)
	}
	log.Printf("graph: %d nodes, %d edges", g.NumNodes(), g.NumEdges())

	if predStr != "" {
		pred, err := core.ParsePredicate(syms, predStr)
		if err != nil {
			return err
		}
		log.Printf("starting with an empty rule set; POST /v1/mine or PUT /v1/rules to load")
		return srv.LoadSnapshot(g, pred, nil)
	}
	if f, err = os.Open(rulesIn); err != nil {
		return err
	}
	rules, err := core.ReadRules(f, syms)
	f.Close()
	if err != nil {
		return fmt.Errorf("read %s: %w", rulesIn, err)
	}
	if len(rules) == 0 {
		return errors.New("rules file is empty")
	}
	log.Printf("loaded %d rules from %s", len(rules), rulesIn)
	return srv.LoadSnapshot(g, rules[0].Pred, rules)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpard:", err)
	os.Exit(1)
}
