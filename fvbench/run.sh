#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#	bash fvbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Build cache, binary, stores and trace
# files all live under .bench_build/ there; nothing is written elsewhere.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C fvbench build -o "$build/fvbench" .
exec "$build/fvbench" -dir "$build" "$@"
