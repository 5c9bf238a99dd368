#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload paper-day --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the workloads' artifacts stay in
# .bench_build/ under the checkout. Without the repository's sources
# next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
