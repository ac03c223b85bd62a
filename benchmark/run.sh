#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash benchmark/run.sh --workload fig4 --seed 1 --seconds 15 --trace 0
#
# Every build artefact, Go cache, scratch file and trace lands in
# .bench_build at the repository root, so a run writes nothing outside
# the repository. Without the repository around
# benchmark/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps its telemetry counters under the config directory.
export XDG_CONFIG_HOME="$out/config"

(cd "$root/benchmark" && go build -o "$out/dstore-benchmark" .)
cd "$root"
exec "$out/dstore-benchmark" -out "$out" "$@"
