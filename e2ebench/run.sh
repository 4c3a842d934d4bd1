#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark, e.g.
#
#   bash e2ebench/run.sh --workload web-serve --seed 3 --seconds 25 --trace 0
#
# The Go build cache, the binary, generated graph files, spans and result
# records all live under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd e2ebench && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" "$@"
