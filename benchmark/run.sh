#!/usr/bin/env bash
# Builds cbqtd and the harness from this checkout's source, then runs the
# harness. Every build output and the Go build cache stay under .bench_build
# in the checkout, so nothing outside it is read or written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/cbqtd" repro/cmd/cbqtd
go build -C "$root/benchmark" -o "$build/harness" .
cd "$root"
exec "$build/harness" -cbqtd "$build/cbqtd" "$@"
