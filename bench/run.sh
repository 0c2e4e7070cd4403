#!/usr/bin/env bash
# Entry point of the benchmark driver: builds the benchmark from source inside
# the checkout (the first run pays for it, later runs find it up to date) and
# runs it with the driver's arguments. Run from the root of the checkout:
#
#   bash bench/run.sh --workload float_small --seed 1 --seconds 10 --trace 0
#
# Everything the toolchain writes — build cache, temporary files, the binary —
# stays under .bench_build/ in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local

go build -buildvcs=false -o "$build/uspbench" ./bench
exec "$build/uspbench" "$@"
