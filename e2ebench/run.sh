#!/usr/bin/env bash
# Builds termnode and the benchmark from the checkout's sources, then
# runs the benchmark with the given arguments, for example:
#
#   bash e2ebench/run.sh --workload steady --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ at the root of
# the checkout: the Go build cache, both binaries and the per-run
# localnet workspaces (a failing run's workspace is kept for its logs).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/runs" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root" && go build -o "$out/bin/termnode" ./cmd/termnode)
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
# Flush the build's writes now, so their writeback does not stall the
# daemons' fsyncs during the timed window.
sync
exec "$out/bin/e2ebench" -bin "$out/bin/termnode" -workdir "$out/runs" "$@"
