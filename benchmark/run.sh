#!/usr/bin/env bash
# Builds the ladder benchmark from source and runs it, keeping everything
# the Go toolchain writes (build cache, temp files, its telemetry counters,
# the binary) inside the checkout under .bench_build/. Run from the
# repository root:
#
#	bash benchmark/run.sh --workload node_large --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
XDG_CONFIG_HOME="$build/config" go build -C "$here" -o "$build/ladder" .
exec "$build/ladder" "$@"
