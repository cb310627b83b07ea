// Command benchmark is the repository's one trusted benchmark: it generates
// inputs from a seed, boots a real cmd/gpard process on the generated files,
// drives one of four workloads over HTTP with one closed-loop caller,
// checks every answer against an in-process reference, and prints every
// metric by name with its unit. A traced pass re-runs the same inputs in
// this process with a span around each call into a layer. See README.md.
//
// Usage (from this directory; -C makes go change into it):
//
//	go run -C benchmark . -seed 1                 # all workloads, traced pass included
//	go run -C benchmark . -seed 1 -repeat 5       # five sets, alternating order, spread table
//	go run -C benchmark . compare a.json b.json   # verdict per workload × metric
//	bash benchmark/run.sh --workload identify-cold --seed 3 --seconds 15 --trace 0
//
// The last form is what BENCHMARK.json's command runs: one workload, one
// JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload and end with the driver's JSON line (default: all four)")
		seed     = flag.Int64("seed", 1, "the only source of randomness: graph, rules, rule order, delta ops, mine parameter order")
		seconds  = flag.Float64("seconds", 15, "measured seconds per workload")
		trace    = flag.Int("trace", -1, "1: also run the traced in-process pass (with -workload: print per-layer metrics); 0: skip it; default: on without -workload, off with")
		repeat   = flag.Int("repeat", 1, "run the whole set this many times, alternating workload order, and report the spread")
		quick    = flag.Bool("quick", false, "smoke scale: 400-user graphs, 1 s phases")
		out      = flag.String("out", "", "write the result file here (default out/result.json)")
	)
	flag.Parse()
	if *trace == -1 {
		*trace = 1
		if *workload != "" {
			*trace = 0
		}
	}
	cfg := fullConfig(*seed, *seconds, *trace == 1)
	if *quick {
		cfg = quickConfig(*seed)
		cfg.trace = *trace == 1
	}
	os.Exit(run(cfg, *workload, *repeat, *out))
}

// run executes the requested workloads and returns the process exit code.
// Every gpard it starts is dead by the time it returns — also when it is
// interrupted or panics — and its scratch directory is gone unless the run
// failed, in which case the daemon logs in it are the post-mortem.
func run(cfg config, workload string, repeat int, out string) (code int) {
	scratch, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	cleanup := func() {
		killAll()
		os.RemoveAll(scratch)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cleanup()
		os.Exit(130)
	}()
	defer func() {
		if r := recover(); r != nil {
			cleanup()
			panic(r)
		}
		if code == 0 {
			cleanup()
		} else {
			killAll()
			fmt.Fprintln(os.Stderr, "benchmark: scratch kept in", scratch)
		}
	}()

	bin, err := buildGpard(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	var results []*runResult
	for rep := 0; rep < repeat; rep++ {
		order := append([]string(nil), names...)
		if rep%2 == 1 { // alternate the order so drift does not favour one workload
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			res, err := runWorkload(cfg, bin, filepath.Join(scratch, fmt.Sprintf("%s-%d", name, rep)), name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			res.Correct = res.Failed == 0
			results = append(results, res)
			if workload == "" {
				printResult(os.Stdout, res)
			}
		}
	}

	if workload != "" {
		res := results[len(results)-1]
		printResult(os.Stdout, res)
		fmt.Println(driverLine(res, cfg.trace))
		if !res.Correct {
			return 1
		}
		return 0
	}
	file := newResultFile(cfg, results)
	if repeat > 1 {
		printSpread(os.Stdout, file)
	}
	if out == "" {
		out = filepath.Join("out", "result.json")
	}
	if err := file.write(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Printf("\nwrote %s\n", out)
	for _, r := range results {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// scratchDir creates this run's directory under out/, beside the source —
// the only place the benchmark writes. It refuses to run anywhere but the
// benchmark module's own directory, where the relative replace of the root
// module resolves.
func scratchDir() (string, error) {
	mod, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(string(mod), "module gpar/benchmark") {
		return "", fmt.Errorf("run me from the benchmark directory (go run -C benchmark .)")
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp("out", "run-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

// runWorkload runs cfg.rounds rounds of one workload, each in its own
// directory with its own inputs and daemon, and merges them. The traced
// pass, when asked for, rides on the last round.
func runWorkload(cfg config, bin, dir, name string) (*runResult, error) {
	var rounds []*runResult
	pr := newProbe()
	for r := 0; r < cfg.rounds; r++ {
		e := &env{
			cfg: cfg, bin: bin, hc: newHTTPClient(), dir: filepath.Join(dir, fmt.Sprintf("round-%d", r)),
			trace: cfg.trace && r == cfg.rounds-1, probe: pr,
		}
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return nil, err
		}
		var res *runResult
		var err error
		switch name {
		case "identify-cold":
			res, err = e.identifyWorkload(name, 1, 0)
		case "identify-hot":
			res, err = e.identifyWorkload(name, 256, 4)
		case "live-mix":
			res, err = e.liveMix()
		case "mine-jobs":
			res, err = e.mineJobs()
		default:
			err = fmt.Errorf("unknown workload %q", name)
		}
		if err != nil {
			return nil, err
		}
		// A round's scratch (graph file, data dir, log) is dead weight once
		// its daemon is, unless something failed.
		if res.Failed == 0 {
			os.RemoveAll(e.dir)
		}
		rounds = append(rounds, res)
	}
	return mergeRounds(rounds), nil
}

// driverLine is the one JSON object the driver reads: the end-to-end
// metrics, or with -trace 1 the per-layer ones, every declared name present.
func driverLine(res *runResult, trace bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.E2E
	if trace {
		defs, vals = perLayer, res.Layers
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}
