#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# so nothing is written elsewhere) and runs it with the given arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/duetbench" .)
exec "$out/duetbench" "$@"
