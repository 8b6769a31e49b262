#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload matrix --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh                      # every workload, one child each
#
# Every file the build and the run write stays inside the checkout: the Go
# build cache, the binary and the per-run state directories go under
# .bench_build/, span files and CPU profiles under bench/out/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$build/duibench" .)
cd "$root"
exec "$build/duibench" "$@"
