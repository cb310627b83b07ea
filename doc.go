// Package gpar is a from-scratch Go reproduction of "Association Rules with
// Graph Patterns" (Wenfei Fan, Xin Wang, Yinghui Wu, Jingbo Xu; PVLDB 8(12),
// 2015): graph-pattern association rules (GPARs), their topological support
// and Bayes-Factor/LCWA confidence, the parallel diversified mining
// algorithm DMine (DMP), and the parallel scalable entity-identification
// algorithms Matchc/Match (EIP), together with the baselines the paper
// compares against (DMineno, disVF2, a GRAMI-like frequent-subgraph miner)
// and a benchmark harness regenerating every table and figure of its
// evaluation section.
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); runnable entry points are the commands under cmd/ and the
// programs under examples/. The substrate is a flat CSR graph core
// (internal/graph: Freeze compiles per-direction edge arenas with label
// range and candidate indexes) driving an allocation-free pooled matcher
// (internal/match) and an interned mining loop (internal/mine) whose
// workers share that one graph, each owning a chunk of the candidate
// centers, and whose BSP rounds run on recycled per-worker arenas —
// effectively allocation-free in steady state — with results
// byte-identical across worker counts, even when the embedding cap
// truncates dense neighborhoods. The paper's d-neighbourhood fragments
// (internal/partition) are what a worker in another process is shipped.
//
// Beyond the paper's batch algorithms, the internal/serve subsystem and the
// gpard daemon (cmd/gpard) turn the reproduction into a mine-once/match-many
// serving system: a resident graph + rule-set snapshot with atomic hot-swap,
// a per-rule match-set cache, a mine-context cache reused across mine jobs,
// single-flight request batching, and a configurable CPU split so
// mine jobs and identify traffic share GOMAXPROCS instead of
// oversubscribing it, all behind a JSON HTTP API — endpoint reference
// in API.md. The root package exists to carry module-level documentation
// and the figure-by-figure benchmarks in bench_test.go.
package gpar
