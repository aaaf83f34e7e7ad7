#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#
#   bash fedbench/run.sh --workload rest-cycle --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local
go build -C fedbench -o "$out/fedbench" .
exec "$out/fedbench" "$@"
