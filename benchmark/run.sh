#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, see go.mod) and runs it
# with the given arguments. Everything it writes — build cache, binary,
# scratch files — goes under .bench_build at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/mgsilt-benchmark" .)
exec "$build/mgsilt-benchmark" -tmp "$build/tmp" "$@"
