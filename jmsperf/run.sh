#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs one workload. Run it
# from the root of the checkout; every argument is passed to jmsperf:
#
#   bash jmsperf/run.sh --workload persist-queue-wire --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the run's WAL files all live under
# .bench_build/ in the checkout, so nothing is written outside it.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$out/jmsperf" .)
exec "$out/jmsperf" --dir "$out/scratch" "$@"
