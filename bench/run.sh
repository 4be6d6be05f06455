#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of the checkout,
# with the given arguments. Everything the build leaves behind — the binary,
# the Go build cache, temporary files, the go command's own configuration and
# counters — stays in .bench_build/ inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C bench -o "$build/hpubench" .
exec "$build/hpubench" "$@"
