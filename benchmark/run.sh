#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build
# writes (compiler cache, temporary files, the binary) stays inside the
# checkout; nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/probkb-benchmark" . >&2
cd "$root"
exec "$build/probkb-benchmark" "$@"
