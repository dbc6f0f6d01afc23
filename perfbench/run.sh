#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the root of a
# checkout; every argument is passed to the benchmark:
#
#	bash perfbench/run.sh --workload jobs-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache and every file a run leaves behind live under
# .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root: go.mod, internal/ or perfbench/ missing" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

exec go -C perfbench run . -root .. "$@"
