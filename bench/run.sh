#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the
# benchmark (see main.go). Everything the build writes - the binary and
# the Go build cache - stays in .bench_build/ at the root of the checkout,
# so a run reads and writes nothing outside it. The binary has to be a
# real file there: the multi-process workload re-executes it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
go build -C "$root/bench" -o "$build/amrbench" .
exec "$build/amrbench" "$@"
