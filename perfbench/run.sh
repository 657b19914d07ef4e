#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload nqueens --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" HOME="$build/home" \
	GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
