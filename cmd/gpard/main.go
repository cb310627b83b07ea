// Command gpard is the GPAR serving daemon: it loads (or generates) a data
// graph, loads or mines a GPAR rule set, and serves entity-identification
// queries over HTTP until terminated — the "mine once, match many" serving
// shape of the paper's use cases. See internal/serve for the subsystem and
// DESIGN.md for the endpoint reference.
//
// Usage:
//
//	gpard -addr :8080 -graph graph.txt -rules rules.txt
//	gpard -addr :8080 -gen pokec -users 2000 -seed 1 \
//	      -pred "user,like_music,music:Disco" -mine -k 8 -sigma 20
//	gpard -addr :8080 -data-dir /var/lib/gpard -wal-sync always
//
// With -data-dir the daemon is durable: every snapshot swap is
// checkpointed to a checksummed snapshot file and every accepted delta
// batch is appended to a write-ahead log before it is acknowledged
// (-wal-sync controls the fsync policy: always | none). On
// restart, if the directory holds a recoverable state, the daemon
// recovers it — newest valid snapshot plus WAL replay — and the
// -graph/-gen/-rules/-mine flags are skipped; corrupt files are
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
	"gpar/internal/gen"
	"gpar/internal/graph"
	"gpar/internal/mine"
	"gpar/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		graphIn  = flag.String("graph", "", "input graph file (exclusive with -gen)")
		genKind  = flag.String("gen", "", "generate the graph: pokec | gplus | synthetic")
		users    = flag.Int("users", 2000, "user count for -gen pokec/gplus")
		nv       = flag.Int("v", 10000, "nodes for -gen synthetic")
		ne       = flag.Int("e", 20000, "edges for -gen synthetic")
		seed     = flag.Int64("seed", 1, "random seed for -gen")
		rulesIn  = flag.String("rules", "", "input rules file")
		predStr  = flag.String("pred", "", "predicate xLabel,edgeLabel,yLabel (required without -rules)")
		doMine   = flag.Bool("mine", false, "mine rules at startup with DMine")
		k        = flag.Int("k", 10, "top-k size for -mine")
		sigma    = flag.Int("sigma", 10, "support threshold σ for -mine")
		d        = flag.Int("d", 2, "radius bound for -mine")
		lambda   = flag.Float64("lambda", 0.5, "diversification balance λ for -mine")
		maxEd    = flag.Int("max-edges", 3, "antecedent edge budget for -mine")
		capRd    = flag.Int("cap", 100, "mining candidates per round (0 = unlimited)")
		workers  = flag.Int("n", 4, "identify fan-out: candidate chunks per rule evaluation; also the fragment count of the -mine start-up job")
		pool     = flag.Int("pool", 0, "matching concurrency bound (0 = GOMAXPROCS minus the mine share)")
		mineCPU  = flag.Float64("mine-share", 0, "fraction of GOMAXPROCS mine jobs may occupy together (0 = default 0.5)")
		cache    = flag.Int("cache", 256, "match-set cache capacity")
		eta      = flag.Float64("eta", 1.0, "default confidence bound η")
		reqTO    = flag.Duration("request-timeout", 0, "server-side identify deadline (0 = 30s, negative = off)")
		maxQ     = flag.Int("max-queue", 0, "admission queue depth before shedding 429 (0 = 64, negative = off)")
		queueTO  = flag.Duration("queue-timeout", 0, "longest an admitted request may wait for a slot (0 = 1s)")
		compactN = flag.Int("compact-threshold", 0, "overlay ops that trigger background delta compaction (0 = off)")
		dataDir  = flag.String("data-dir", "", "durable data directory: checkpoints snapshots + a delta WAL and recovers from them at startup")
		walSync  = flag.String("wal-sync", "always", "WAL fsync policy for -data-dir: always | none")
	)
	flag.Parse()
	bootStart := time.Now()

	cfg := serve.Config{
		Workers:          *workers,
		MineShare:        *mineCPU,
		PoolSize:         *pool,
		CacheCap:         *cache,
		DefaultEta:       *eta,
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
		g, syms, err := loadGraph(*graphIn, *genKind, *users, *nv, *ne, *seed)
		if err != nil {
			fatal(err)
		}
		log.Printf("graph: %d nodes, %d edges", g.NumNodes(), g.NumEdges())

		var rules []*core.Rule
		var pred core.Predicate
		switch {
		case *rulesIn != "" && (*doMine || *predStr != ""):
			fatal(errors.New("-rules is exclusive with -mine/-pred (the rule file fixes the predicate)"))
		case *rulesIn != "":
			f, err := os.Open(*rulesIn)
			if err != nil {
				fatal(err)
			}
			rules, err = core.ReadRules(f, syms)
			f.Close()
			if err != nil {
				fatal(err)
			}
			if len(rules) == 0 {
				fatal(errors.New("rules file is empty"))
			}
			pred = rules[0].Pred
			log.Printf("loaded %d rules from %s", len(rules), *rulesIn)
		case *predStr != "":
			pred, err = core.ParsePredicate(syms, *predStr)
			if err != nil {
				fatal(err)
			}
			if *doMine {
				opts := mine.Options{
					K: *k, Sigma: *sigma, D: *d, Lambda: *lambda, N: *workers,
					MaxEdges: *maxEd, MaxCandidatesPerRound: *capRd,
				}
				start := time.Now()
				res := mine.DMine(g, pred, opts)
				for _, mm := range res.TopK {
					rules = append(rules, mm.Rule)
				}
				log.Printf("mined %d rules (F=%.4f) in %s", len(rules), res.F,
					time.Since(start).Round(time.Millisecond))
			} else {
				log.Printf("starting with an empty rule set; POST /v1/mine or PUT /v1/rules to load")
			}
		default:
			fatal(errors.New("one of -rules or -pred is required"))
		}
		if err := srv.LoadSnapshot(g, pred, rules); err != nil {
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

func loadGraph(file, kind string, users, nv, ne int, seed int64) (*graph.Graph, *graph.Symbols, error) {
	syms := graph.NewSymbols()
	switch {
	case file != "" && kind != "":
		return nil, nil, errors.New("-graph and -gen are exclusive")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		g, err := graph.Read(f, syms)
		return g, syms, err
	case kind == "pokec":
		return gen.Pokec(syms, gen.DefaultPokec(users, seed)), syms, nil
	case kind == "gplus":
		return gen.Gplus(syms, gen.DefaultGplus(users, seed)), syms, nil
	case kind == "synthetic":
		return gen.Synthetic(syms, nv, ne, seed), syms, nil
	case kind != "":
		return nil, nil, fmt.Errorf("unknown -gen %q", kind)
	default:
		return nil, nil, errors.New("one of -graph or -gen is required")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpard:", err)
	os.Exit(1)
}
