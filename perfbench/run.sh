#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it:
#   bash perfbench/run.sh --workload stiff-deflated-tcp --seed 0 --seconds 20 --trace 0
# Run from the repository root. Everything the build and the runs write
# stays under $CARGO_TARGET_DIR (default .bench_build) in that directory.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
