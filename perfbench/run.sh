#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload refresh_matrix --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the compiler's scratch files and the
# go command's user configuration (where it keeps local telemetry counters)
# all stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# VCS stamping is provenance only: where the checkout's VCS state cannot
# be read, build without it (the revision then reads "unknown").
(cd "$root/perfbench" && { go build -o "$out/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$out/perfbench" .; })
exec "$out/perfbench" "$@"
