#!/bin/sh
# Build the benchmark from source and run it, keeping everything the
# build leaves behind inside the checkout (.bench_build/).
#
#   sh bench/run.sh --workload panda-exposed --seed 1 --seconds 10 --trace 0
#
# From the root of the repository; `go run -C bench .` does the same with
# Go's own cache locations.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
