#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it
# from the checkout root with the given arguments, e.g.
#
#   bash servicebench/run.sh --workload study-cold --seed 1 --seconds 35 --trace 0
#
# Every build product, cache and run file lives under .bench_build/ in
# the checkout; nothing is fetched from the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/servicebench" && go build -o "$build/bin/servicebench" .)
cd "$root"
exec "$build/bin/servicebench" "$@"
