#!/usr/bin/env bash
# Builds the Algorithm-1 benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build, its Go caches and every file the
# benchmark writes stay under .bench_build/ in the current directory. The
# last line of standard output is the JSON result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" "$@"
