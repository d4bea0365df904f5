#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash zbench/run.sh --workload kv-exits --seed 1 --seconds 10 --trace 0
#
# Build outputs (binary, Go build cache, traces) stay under the directory
# named by CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/zbench" .)
export ZBENCH_OUT="$out"
exec "$out/zbench" "$@"
