#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 28 --trace 0
#   bash perfbench/run.sh compare --parent DIR --change DIR
#
# Build output and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) so the run touches nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
# The go command's caches and its user configuration (telemetry counters
# included) go under $out too.
(cd "$root/perfbench" && GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
