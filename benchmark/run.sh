#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash benchmark/run.sh --workload plant-1k --seed 1 --seconds 30 --trace 0
#   bash benchmark/run.sh steady --workload plant-1k --runs 10 --seed 1
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout. Without the repository's sources next to it the build fails
# and the script exits non-zero before printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/digsbench" .) >&2
cd "$root"
exec "$out/digsbench" "$@"
