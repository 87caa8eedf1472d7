#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the checkout:
#
#   bash bench/run.sh --workload recover-large --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch files all stay under
# .bench_build/ in the checkout. Without the parma module next to this
# directory the build fails, and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/parma-bench-suite" .)
cd "$root"
exec "$out/parma-bench-suite" -workdir "$out/work" "$@"
