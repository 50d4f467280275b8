#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
#
#   bash e2ebench/run.sh --workload kernel-tiers --seed 1 --seconds 20 --trace 0
#
# Run from the root of a popkit checkout. The build and every file the
# benchmark writes stay under .bench_build/ in that checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/serve" ] || [ ! -f "$root/BENCHMARK.json" ]; then
	echo "e2ebench: run from the root of a popkit checkout (no go.mod, internal/ or BENCHMARK.json here)" >&2
	exit 2
fi
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -root "$root" "$@"
