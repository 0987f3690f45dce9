#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload sweep --seed 1 --seconds 12 --trace 0
#
# Every build artifact (the binary, the Go build cache, the compiler's
# temporary files, Go's own config and telemetry files) stays under
# .bench_build/ in the working directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd benchmark && go build -o "$build/isc-benchmark" .)
exec "$build/isc-benchmark" "$@"
