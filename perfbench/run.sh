#!/usr/bin/env bash
# Builds the swarm benchmark from the checkout it is run in and executes it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload flood-mem --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and the
# trace files all stay under .bench_build/ in that directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
