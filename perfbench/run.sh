#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload fused-bin --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build outputs and the Go build cache stay
# under $CARGO_TARGET_DIR (default .bench_build) so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

go -C "$root/perfbench" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
