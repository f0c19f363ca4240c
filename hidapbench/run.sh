#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; every argument is
# passed through (see hidapbench/README.md). Run it from the repository root:
#
#   bash hidapbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the run records all live under the
# build directory ($CARGO_TARGET_DIR, default .bench_build), so nothing is
# written outside the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/home" "$build/tmp"

export HOME=$build/home XDG_CONFIG_HOME=$build/home/config XDG_CACHE_HOME=$build/home/cache
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off

(cd hidapbench && go build -o "$build/hidapbench" .)
exec "$build/hidapbench" --out "$build/hidapbench-out" "$@"
