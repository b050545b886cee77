#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sampled --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files and
# the binary all stay under .bench_build in that directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
