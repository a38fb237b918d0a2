#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload canon-uniform --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory (Go build cache included).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
