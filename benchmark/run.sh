#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (inside the checkout, with
# its own Go build cache, so nothing is read or written outside it) and runs
# it from the checkout's root with the arguments given.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/parsl-benchmark" .
exec "$build/parsl-benchmark" "$@"
