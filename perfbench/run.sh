#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# root of the repository:
#
#   bash perfbench/run.sh --workload tpch-batch --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --compare runs/base runs/change
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spec "$root/BENCHMARK.json" --trace-dir "$out/traces" "$@"
