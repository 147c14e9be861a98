#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it from the checkout root with the given arguments, e.g.
#
#   bash bench/run.sh --workload steady-alwayson --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the binary)
# stays under .bench_build/ at the checkout root; results go to bench-out/.
# The build fails, and nothing is printed on standard output, when the
# simulator's sources are not next to bench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" PPROF_TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/bench" build -o "$build/bench" . >&2
cd "$root"
exec "$build/bench" "$@"
