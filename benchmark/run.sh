#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments go to the program
# (see README.md). The build cache, the binary and everything the run
# writes stay inside the checkout: .bench_build/ at its root, out/ here.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
