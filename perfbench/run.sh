#!/usr/bin/env bash
# Builds the perfbench harness from source and runs it with the given
# arguments, for example:
#
#   bash perfbench/run.sh --workload fleet-predict --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache and the binary live in
# .bench_build/ so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
XDG_CONFIG_HOME="$build/config" go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
