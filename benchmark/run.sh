#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes (binary, Go build cache, toolchain config)
# stays in .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C benchmark -o "$build/serialgraph-benchmark" .
exec "$build/serialgraph-benchmark" "$@"
