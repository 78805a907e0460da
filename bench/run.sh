#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it.
#
#   bash bench/run.sh --workload osu_mr --seed 1 --seconds 10 --trace 0
#
# Run it from anywhere inside a checkout: it works from the checkout root,
# keeps every Go cache and build output under .bench_build/, and fails
# before printing a result when the simulator sources are missing.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" PPROF_TMPDIR="$out/pprof"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off

(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
