#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Everything it builds or writes stays
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp TMPDIR=$out/gotmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
