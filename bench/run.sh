#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#   bash bench/run.sh --workload paper-figures --seed 1 --seconds 12 --trace 0
# Everything the build writes (the binary and the Go build cache) stays in
# .bench_build at the repository root; traces go to .bench_build/trace.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$out/ssmpbench" .
cd "$root"
exec "$out/ssmpbench" "$@"
