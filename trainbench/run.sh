#!/usr/bin/env bash
# Builds the training benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run it from the repository
# root:
#
#   bash trainbench/run.sh --workload tcp-pp2-wide --seed 1 --seconds 10 --trace 0
#
# Everything the build leaves behind (binary, Go build cache) goes under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
(cd "$root/trainbench" && XDG_CONFIG_HOME="$out/config" go build -o "$out/trainbench" .)
exec "$out/trainbench" "$@"
