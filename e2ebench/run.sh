#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the root of a checkout:
#
#   bash e2ebench/run.sh --workload pbbs-fork --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and traces go to .bench_build/ in the
# checkout, so nothing is written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C "$here" build -o "$out/e2ebench" .
exec "$out/e2ebench" -out "$out" "$@"
