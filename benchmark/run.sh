#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ (compiler cache and temporaries included, so nothing
# is written outside the checkout) and runs it from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/fastbfs-bench" .
cd "$root"
exec "$build/fastbfs-bench" "$@"
