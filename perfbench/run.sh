#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, traces)
# lands under the build directory: $CARGO_TARGET_DIR when set, otherwise
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
# The toolchain's default install location, for environments whose PATH
# lacks it.
command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath \
	XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" -out "$build" "$@"
