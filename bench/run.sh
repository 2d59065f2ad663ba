#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# flags. Run from the repository root:
#
#   bash bench/run.sh --workload fig5_grid --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh --seed 1 --runs 5          # every workload, five seeds
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/netpath-bench" .)
exec "$out/netpath-bench" "$@"
