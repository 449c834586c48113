#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tree --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout,
# and the build never reaches the network (GOPROXY=off).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Measure the engine's default cache and memory budgets, whatever the
# caller's environment asks for.
unset FASCIA_LLC_BYTES FASCIA_MEM_BYTES

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
cd "$root"
exec "$build/bin/perfbench" "$@"
