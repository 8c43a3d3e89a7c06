#!/usr/bin/env bash
# The driver's entry point. It builds the harness and runs it with every
# cache and temp file of the go command kept inside the checkout, so a
# run reads and writes nothing outside it. Run from the module root:
#
#   bash benchmark/run.sh --workload p2p_cold --seed 1 --seconds 20 --trace 0
#
# Developers can equally `go run ./benchmark …`; the only difference is
# where the go command keeps its build cache.
set -euo pipefail
b="$PWD/.bench_build"
mkdir -p "$b/gocache" "$b/tmp" "$b/config" "$b/gopath" "$b/bin"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" GOPATH="$b/gopath" \
	XDG_CONFIG_HOME="$b/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$b/bin/benchmark" ./benchmark
exec "$b/bin/benchmark" "$@"
