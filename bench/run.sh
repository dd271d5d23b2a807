#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build output,
# cache and temporary file inside .bench_build/ of the current directory.
# Run it from the repository root; all arguments go to the benchmark:
#
#   bash bench/run.sh --workload replay-bfs --seed 7 --seconds 25 --trace 0
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$build/graphpim-bench" .)
exec "$build/graphpim-bench" "$@"
