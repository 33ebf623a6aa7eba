#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's own build directory and
# runs it with the driver's arguments. Everything Go writes — build cache,
# temporary files, the binary — stays under .bench_build in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/sft-bench" .)
exec "$build/sft-bench" -out "$here/out" "$@"
