#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments, e.g.
#
#   bash cmd/bench/run.sh --workload study-seq --seed 3 --seconds 20 --trace 0
#
# The harness is its own Go module, built against the library sources
# two directories up. The build cache, the binary and every file a run
# writes stay under .bench_build/ at the repository root, and the build
# never reaches the network.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
go -C "$here" build -o "$build/bench" .
exec "$build/bench" -workdir "$build/work" "$@"
