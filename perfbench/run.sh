#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
# Run from the repository root:
#
#	bash perfbench/run.sh --workload ratio-cold --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, the binary, and the workloads' data dirs.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/server ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config" "$out/tmp"

export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/tmp" "$@"
