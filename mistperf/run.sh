#!/usr/bin/env bash
# Builds the mistperf benchmark from source and runs it with the
# given arguments (--workload NAME --seed N --seconds S --trace 0|1).
# Run it from the repository root. Build state (Go build cache, temp
# files, the binary) stays under .bench_build in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f mistperf/main.go || ! -d internal ]]; then
	echo "mistperf: run from the root of the repository (go.mod, internal/ and mistperf/ must be present)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$build/mistperf" ./mistperf
exec "$build/mistperf" "$@"
