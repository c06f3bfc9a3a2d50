#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark (see README.md):
#
#   bash scripts/tsmobench/run.sh --workload seq-r1-400 --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files, daemon data directories and trace
# exports all stay under .bench_build/ in the current directory. The build
# fails — and nothing is printed on stdout — when the repository's module
# is not two directories up.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$(dirname "$0")" && go build -o "$out/tsmobench" .)
exec "$out/tsmobench" "$@"
