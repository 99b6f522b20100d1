#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Every file it
# writes (Go build cache, binary, result files, traces, profiles) goes under
# ${CARGO_TARGET_DIR:-.bench_build} in the current directory, which must be
# the repository root.
#
#   bash perfbench/run.sh --workload tpcc-mix --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <results-dir-A> <results-dir-B>
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
if [ "${1:-}" = compare ]; then
	exec "$build/perfbench" "$@"
fi
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
