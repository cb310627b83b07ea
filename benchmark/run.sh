#!/usr/bin/env bash
# Entry point for BENCHMARK.json: builds and runs the benchmark from the
# checkout's own source, keeping every byte the Go toolchain writes (build
# cache included) under benchmark/out, so a run touches nothing outside the
# checkout. Arguments go straight to the benchmark; see main.go.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOMODCACHE="$PWD/out/gomodcache" GOFLAGS=-modcacherw GOTOOLCHAIN=local
exec go run . "$@"
