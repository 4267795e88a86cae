#!/usr/bin/env bash
# Builds dkbench from the sources of the checkout it sits in and runs it
# with the given arguments. Run from the repository root:
#
#   bash dkbench/run.sh --workload static --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/dkbench" && go build -o "$out/dkbench" .)
exec "$out/dkbench" "$@"
