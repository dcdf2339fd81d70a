#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Run from the
# repository root; every argument is passed to it:
#
#   bash benchmark/run.sh --workload dmz-bulk --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and trace files stay under
# .bench_build/ in the current directory.
set -eu

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a full repository checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/benchmark" && go build -o "$build/dmzbench" .)
exec "$build/dmzbench" "$@"
