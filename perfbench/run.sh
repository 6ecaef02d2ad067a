#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload soc-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every build and run artefact
# (Go build cache, binary, scratch files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOENV=off
# The go command keeps telemetry under the user config directory.
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
