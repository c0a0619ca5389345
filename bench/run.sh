#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh -all [-repeat N]
#
# Everything built or written stays inside the checkout: the binary, the
# Go build cache and the scratch worlds under .bench_build/, the traces
# under bench/out/. The build needs the repository's own module one
# directory up (bench/go.mod replaces it with ../), so in a directory
# that holds only the benchmark this script fails.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run me from the root of a checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$root/bench" -o "$build/streach-bench" .
exec "$build/streach-bench" "$@"
