#!/usr/bin/env bash
# Builds the benchmark and the coraddd daemon from this checkout's sources
# into .bench_build, then runs the benchmark from the checkout root:
#
#   bash perfbench/run.sh --workload design-apb --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare <baseline-dir> <candidate-dir>
#
# Every build artifact (Go build cache and the toolchain's telemetry and
# config lookups included) stays inside .bench_build, and the toolchain is
# kept offline: nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" &&
	go build -o "$out/perfbench" . &&
	go build -o "$out/coraddd" coradd/cmd/coraddd)

if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
exec "$out/perfbench" --daemon "$out/coraddd" --tmp "$out/tmp" "$@"
