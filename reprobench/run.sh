#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash reprobench/run.sh --workload diagnose --seed 1 --seconds 20 --trace 0
#
# Every build artifact and Go cache stays under .bench_build/ in the
# checkout. Without the repository's sources next to reprobench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$out/tmp"
(cd "$root/reprobench" && go build -o "$out/reprobench" .) >&2
exec "$out/reprobench" "$@"
