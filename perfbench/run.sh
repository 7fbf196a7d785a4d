#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash perfbench/run.sh --workload fleet-pop --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and profile stays under .bench_build/ in
# the repository root. The build needs the repository's Go module one
# directory up; without it the script fails before printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	GOTMPDIR="$out/go-tmp" TMPDIR="$out/go-tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
mkdir -p "$GOTMPDIR"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
