#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve_cold --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary, the full result records and the span files of traced runs.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
