#!/usr/bin/env bash
# Builds lsibench from this checkout and runs it with the given arguments
# from the build directory, where traced runs leave trace_<workload>.json.
# Build output goes to stderr, so the benchmark's JSON result stays the last
# line of stdout.
#
#   bash benchmark/run.sh --workload search-small --seed 1 --seconds 12 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/build-benchmark"

cmake -S "$root/benchmark" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 --target lsibench >&2

cd "$build"
exec ./lsibench "$@"
