GO ?= go
BIN := bin

.PHONY: all build vet fmt-check test race bench bench-match bench-mine \
	bench-short bench-mine-short bench-e2e-check docs-check loc-check inline-check \
	figures figures-check fuzz-smoke loadtest overload crashtest examples serve clean

all: vet fmt-check build test

build:
	$(GO) build -o $(BIN)/ ./cmd/...

vet:
	$(GO) vet ./...

# Fail if gofmt would change any file (both modules; it prints the names).
fmt-check:
	@test -z "$$(gofmt -l . | tee /dev/stderr)"

test:
	$(GO) build ./... && $(GO) test -shuffle=on ./...

# The concurrent packages under the race detector. The internal/mine suites
# run under the arena poison (their TestMain sets it).
race:
	$(GO) test -race ./internal/serve/ ./internal/partition/ ./internal/match/ \
	    ./internal/graph/ ./internal/mine/
	$(GO) test -race -run 'TestEvalRuleCorpus' .

# Short coverage-guided runs of the fuzz targets: gpard against its model
# (op sequences over identify, deltas, swaps, mines, compaction and crashes,
# checked against core.Eval), the delta repair of cached evaluations
# against a fresh one, delta op application in graph, the graph file
# reader gpard -graph boots from, the rule reader PUT /v1/rules and -rules
# parse, the durability decoders (snapshot file format, WAL replay),
# mining's extension discovery against its per-edge reference, the
# canonical pattern code against pairwise isomorphism, a matcher
# restricted to the identify filter's sets against a plain one, the
# frozen-graph byte decoder against an edge-by-edge build, and the
# identify answer's encoder against encoding/json.
# Go allows one target per -fuzz invocation, so each runs separately; seed
# corpora also run on every plain `make test`. -fuzzminimizetime bounds the
# minimisation of each new interesting input in executions, not seconds
# (Go's default is 60 s, which can eat a whole 20 s run): 100 for the
# targets that run thousands of executions a second, 10 for the three that
# run under a thousand. Two seconds per input left FuzzServeModel 37
# executions in 20 s; 10 executions let it run about 800 (one run per
# target, fresh fuzz cache, 2 vCPUs; CHANGES.md has every count). A failing
# input is still saved under testdata/fuzz, just less minimised. The target
# starts with `go clean -fuzzcache`: each run re-executes every cached input
# as its baseline before it fuzzes, and a warm cache of a few hundred
# FuzzServeModel inputs took its whole 20 s to replay. The committed seeds
# under testdata/fuzz are not part of the cache and stay.
FUZZ := $(GO) test -run '^$$' -fuzztime 20s
fuzz-smoke:
	$(GO) clean -fuzzcache
	$(FUZZ) -fuzz 'FuzzApplyDelta' -fuzzminimizetime 100x ./internal/graph/
	$(FUZZ) -fuzz 'FuzzRead' -fuzzminimizetime 100x ./internal/graph/
	$(FUZZ) -fuzz 'FuzzReadRules' -fuzzminimizetime 100x ./internal/core/
	$(FUZZ) -fuzz 'FuzzServeModel' -fuzzminimizetime 10x ./internal/serve/
	$(FUZZ) -fuzz 'FuzzDeltaRepair' -fuzzminimizetime 10x ./internal/serve/
	$(FUZZ) -fuzz 'FuzzSnapshotDecode' -fuzzminimizetime 100x ./internal/snapfile/
	$(FUZZ) -fuzz 'FuzzDecodeCSR' -fuzzminimizetime 100x ./internal/graph/
	$(FUZZ) -fuzz 'FuzzWALReplay' -fuzzminimizetime 100x ./internal/serve/
	$(FUZZ) -fuzz 'FuzzDiscoverExtensions' -fuzzminimizetime 10x ./internal/mine/
	$(FUZZ) -fuzz 'FuzzPatternCode' -fuzzminimizetime 100x ./internal/pattern/
	$(FUZZ) -fuzz 'FuzzFilter' -fuzzminimizetime 100x ./internal/match/
	$(FUZZ) -fuzz 'FuzzIdentifyEncoding' -fuzzminimizetime 100x ./internal/serve/

# Run the hot-path benchmarks with -benchmem and record them, stamped with
# the machine fingerprint and commit, in BENCH_match.json (matcher, serving,
# durability, and the identify kernel per rule shape on the three corpus
# graphs) and BENCH_mine.json (the mining loop and mine jobs).
# Record both in one run on one machine; numbers from different
# fingerprints do not compare. Each row runs five times (-count 5) at a
# fifth of the single run's -benchtime, and benchjson records the median of
# the five, so one noisy run cannot move a row and the targets take about as
# long as one run each did. The two-step temp-file dance (rather than a
# pipe) makes a benchmark failure fail the target instead of being masked
# by the parser's exit status.
bench: bench-match bench-mine

bench-match:
	$(GO) test -run '^$$' -bench 'BenchmarkAnchoredMatch|BenchmarkMatchSet$$|BenchmarkIdentify|BenchmarkDeltaApply|BenchmarkDeltaRepair|BenchmarkWALAppend|BenchmarkSnapshotLoad|BenchmarkSnapshotWrite|BenchmarkFreeze|BenchmarkCompactCopy' \
	    -benchmem -benchtime=200ms -count 5 ./internal/match/ ./internal/serve/ ./internal/snapfile/ > bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkEvalRuleShapes' -benchmem -benchtime=200ms -count 5 . >> bench.out
	$(GO) run ./cmd/benchjson -o BENCH_match.json < bench.out
	@rm -f bench.out

bench-mine:
	$(GO) test -run '^$$' -bench 'BenchmarkDMine$$|BenchmarkDMineNo$$|BenchmarkDiscoverExtensions|BenchmarkLocalMineRound|BenchmarkDiversifyUpdate' \
	    -benchmem -benchtime=400ms -count 5 ./internal/mine/ ./internal/diversify/ > bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkMineJob' \
	    -benchmem -benchtime=400ms -count 5 ./internal/serve/ >> bench.out
	$(GO) run ./cmd/benchjson -o BENCH_mine.json < bench.out
	@rm -f bench.out

# Short-mode variants for CI: one quick pass so regressions show up in PR
# logs without a stable-machine timing claim. bench-short also prices
# graph.Walk through its two callers that do nothing else per node. Each
# writes the JSON it measured to an untracked file (bench-short.json,
# bench-mine-short.json) that CI uploads; the committed BENCH_*.json are
# the long runs above.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkAnchoredMatch|BenchmarkIdentify|BenchmarkDeltaRepair' \
	    -benchmem -benchtime=50x ./internal/match/ ./internal/serve/ > bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkEvalRuleShapes' -benchmem -benchtime=10x . >> bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkNeighborhood$$|BenchmarkSketchOf$$' -benchmem -benchtime=10000x \
	    ./internal/graph/ ./internal/sketch/ >> bench.out
	$(GO) run ./cmd/benchjson -o bench-short.json < bench.out
	@rm -f bench.out

bench-mine-short:
	$(GO) test -run '^$$' -bench 'BenchmarkDMine$$|BenchmarkDiscoverExtensions|BenchmarkLocalMineRound|BenchmarkDiversifyUpdate' \
	    -benchmem -benchtime=3x ./internal/mine/ ./internal/diversify/ > bench.out
	$(GO) test -run '^$$' -bench 'BenchmarkMineJob' \
	    -benchmem -benchtime=3x ./internal/serve/ >> bench.out
	$(GO) run ./cmd/benchjson -o bench-mine-short.json < bench.out
	@rm -f bench.out

# benchmark/ is a module of its own, outside `go build ./... && go test
# ./...`, and compiles against exported internal/serve, internal/eip,
# internal/mine, internal/mine/remote, internal/match, internal/sketch and
# internal/partition surface: vet it and run its tests (unit tests plus a
# 400-user smoke of all four workloads) so a signature change here cannot
# break it unseen.
bench-e2e-check:
	$(GO) vet -C benchmark ./... && $(GO) test -C benchmark ./...

# CI load smoke: boot a real server, drive it under and past capacity,
# and assert it serves cleanly when calm, sheds 429s fast when saturated,
# and never falls over. Finishes in a few seconds.
loadtest:
	$(GO) run ./cmd/gparload -quick

# The full overload comparison behind the numbers in DESIGN.md: the same
# offered load with shedding on vs off. Takes ~30s plus the startup mine;
# for operators, not CI.
overload:
	$(GO) run ./cmd/gparload -overload -users 10000 -qps 300 -dur 10s

# Run every program under examples/ once; any non-zero exit fails the
# target. Each finishes in well under a second.
examples:
	@for d in examples/*/; do \
		echo "$$d"; $(GO) run ./$$d > /dev/null || { echo "$$d failed"; exit 1; }; \
	done

# The durability suite under the race detector: the disk fault harness,
# the snapshot format's truncation/bit-flip sweeps and crash-safe writes,
# and FuzzServeModel's seeds (clean, torn and bit-flip crashes among the
# other ops, every recovery checked against the model). The tight timeout is
# the hang watchdog: recovery that wedges on an injected fault fails the
# build instead of stalling it.
crashtest:
	$(GO) test -race -timeout 120s ./internal/diskfault/ ./internal/snapfile/
	$(GO) test -race -timeout 120s -run 'FuzzServeModel|TestCrashRecoveryOracle|TestRecover|TestCheckpoint|TestDeltaAborts|TestShutdownFlushes' \
	    ./internal/serve/

# The fidelity artifact: every Section 6 figure and the precision table at
# QuickScale, written by gparbench into the committed FIGURES.csv (~5 s).
# Its counters are deterministic, so figures-check regenerates it and fails
# on any difference outside the seconds column, which the CSV puts last.
figures:
	$(GO) run ./cmd/gparbench -quick -csv FIGURES.csv > /dev/null

figures-check:
	@$(GO) run ./cmd/gparbench -quick -csv figures.out > /dev/null
	@sed 's/,[^,]*$$//' figures.out > figures.got; \
	sed 's/,[^,]*$$//' FIGURES.csv | diff - figures.got; s=$$?; rm -f figures.out figures.got; \
	test $$s = 0 || { echo "FIGURES.csv differs from a fresh run: make figures re-records it"; exit 1; }

# Fail if any internal package lacks a package-level doc comment, if
# DESIGN.md / API.md name a backticked `pkg.Ident` that internal/pkg no
# longer declares, or if DESIGN.md has outgrown the size ceiling in
# cmd/docscheck — the documentation gate CI runs on every push.
docs-check:
	$(GO) run ./cmd/docscheck internal DESIGN.md API.md

# Fail if a frozen-graph read stops inlining: the matcher and the BFS call
# Out, In, Degree and Label per edge, and one lost inline costs the matcher
# 10-30 %. A delta overlay's read is one flag and one map index behind the
# nil-overlay test, which the inliner prices far below its budget; a call
# there would not fit.
inline-check:
	@m=$$($(GO) build -gcflags=-m ./internal/graph 2>&1) || { echo "$$m"; exit 1; }; \
	for f in Out In Degree Label; do \
		echo "$$m" | grep -q "can inline (\*Graph)\.$$f\$$" || { echo "(*Graph).$$f no longer inlines"; exit 1; }; \
	done

# Fail if the non-test Go outside benchmark/ has grown past the budget: the
# count after the last PR that lowered it. A PR that must add code raises
# the number here, in the diff, where a reviewer sees it; one that deletes
# code lowers it to the new count. The test Go count beside it is
# informational: it has no budget.
LOC_BUDGET := 15244
loc-check:
	@n=$$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l); \
	t=$$(find . -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l); \
	echo "non-test Go outside benchmark/: $$n lines (budget $(LOC_BUDGET)); test Go: $$t lines"; \
	test $$n -le $(LOC_BUDGET)

# Start the serving daemon on a generated Pokec-like graph with a starter
# rule set mined for the Disco predicate (see DESIGN.md quickstart).
serve: build
	./$(BIN)/gpargen -kind pokec -users 2000 -seed 1 -out $(BIN)/serve-graph.txt
	./$(BIN)/gparmine -graph $(BIN)/serve-graph.txt -pred "user,like_music,music:Disco" \
	    -k 8 -sigma 20 -rules $(BIN)/serve-rules.txt
	./$(BIN)/gpard -addr :8080 -graph $(BIN)/serve-graph.txt -rules $(BIN)/serve-rules.txt

clean:
	rm -rf $(BIN) data demo-data
	rm -f bench-short.json bench-mine-short.json
	find . -name '*.test' -type f -delete
	find . \( -name '*.gpsnap' -o -name '*.wal' -o -name '*.corrupt' \) -type f -delete
