#!/usr/bin/env bash
# Builds perfbench from source inside the checkout, then replaces this shell
# with it, so the measured process starts no child process. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload suite-align --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary live under .bench_build/ in the
# checkout. Outside a full checkout (no ../go.mod next to perfbench/) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
