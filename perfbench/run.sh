#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload sync-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go
# build cache, binary, temporary stores, span files) stays under
# .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

# The build fails, and so does this script, when the repository's
# source is not next to the benchmark.
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" --out "$out/perfbench-out" "$@"
