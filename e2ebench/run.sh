#!/usr/bin/env bash
# Builds e2ebench from this checkout's sources and runs it with the given
# flags, from the checkout root. Everything the build and the run write
# stays under .bench_build/ in the checkout.
#
#   bash e2ebench/run.sh --workload warm-mix --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/bin/e2ebench" .)
cd "$root"
exec "$out/bin/e2ebench" "$@"
