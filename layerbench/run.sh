#!/usr/bin/env bash
# Builds cordobad and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments (see main.go for usage):
#
#   bash layerbench/run.sh --workload wire-open --seed 1 --seconds 20 --trace 0
#   bash layerbench/run.sh steady --runs 10 --seconds 20
#
# Run it from the repository root. Everything the build and the runs write
# stays under the build directory ($CARGO_TARGET_DIR when set, else
# .bench_build), and the Go toolchain is kept offline.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
bin="$build/layerbench/bin"
mkdir -p "$bin"

export GOCACHE="$build/layerbench/gocache" GOMODCACHE="$build/layerbench/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=-mod=mod
# The load comes from one process on two processors, like the server.
export GOMAXPROCS=2

(cd "$here" && go build -o "$bin/layerbench" . && go build -o "$bin/cordobad" repro/cmd/cordobad) >&2
exec "$bin/layerbench" "$@" --dir "$build/layerbench/run"
