#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash campaignbench/run.sh --workload kernel_golden --seed 1 --seconds 15 --trace 0
#   bash campaignbench/run.sh -benchmark BENCHMARK.json -reps 5 -json results.json
#
# Everything it builds and writes stays under .bench_build/ in the
# current directory: the Go build cache, the binary, result caches and
# span files. The first run compiles the standard library into that cache.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "$here" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
