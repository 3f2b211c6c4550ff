#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given. Everything the build leaves behind (Go build cache,
# temporary files, the binary) stays under .bench_build at the root of the
# checkout; results and traces go to benchmark/out unless -out says otherwise.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
go build -C "$here" -o "$build/aurora-benchmark" .
exec "$build/aurora-benchmark" -out "$here/out" "$@"
