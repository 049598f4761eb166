#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. Run
# it from the repository root, for example:
#
#   bash perfbench/run.sh --workload paper-mb8 --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the traced pass's output stay inside the
# checkout, under .bench_build and .bench_out.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOTOOLCHAIN=local GOFLAGS= XDG_CONFIG_HOME=$build/config
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$root/.bench_out" "$@"
