#!/usr/bin/env bash
# Builds sesa-perf from this checkout's sources and runs it from the
# repository root with the given arguments, for example:
#
#   bash bench/run.sh -workload sweep-par -seed 42 -seconds 25 -trace 0
#
# Everything the build and the run write, the Go build cache included, stays
# in .bench_build/ at the repository root.
#
# The run returns freed heap pages to the kernel with MADV_FREE rather than
# Go's default MADV_DONTNEED, so that reusing them does not fault each page
# back in (bench/README.md, "Why CPU time").
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$build/sesa-perf" ./sesa-perf
GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}" exec "$build/sesa-perf" "$@"
