#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it with the given arguments. Run from the root of the checkout:
#
#   bash benchmark/run.sh --workload serve_bulk --seed 1 --seconds 10 --trace 0
#
# Everything the Go toolchain writes (build cache included) stays inside the
# checkout, and nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
build="${BENCH_BUILD_DIR:-$root/.bench_build}"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/parclass-benchmark" .)
exec "$build/parclass-benchmark" "$@"
