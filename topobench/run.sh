#!/usr/bin/env bash
# Builds topooptd and the topobench binary from this checkout and runs
# topobench with the given arguments, e.g.
#
#   bash topobench/run.sh --workload hit --seed 1 --seconds 20 --trace 0
#   bash topobench/run.sh steady --runs 10 --seconds 20
#
# Binaries, the Go build cache and every file a run writes stay under
# .bench_build/ at the root of the checkout. Build output goes to stderr,
# so the last line of stdout is topobench's JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOENV=off

cd "$here"
go build -o "$out/bin/topobench" . >&2
go build -o "$out/bin/topooptd" topoopt/cmd/topooptd >&2
cd "$root"
exec "$out/bin/topobench" -root "$root" -bin "$out/bin" "$@"
