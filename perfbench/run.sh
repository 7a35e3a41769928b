#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root, passing every argument through:
#
#   bash perfbench/run.sh --workload shared-star --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout. No module is downloaded: the engine is
# the enclosing module, reached through perfbench/go.mod's replace.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
test -f go.mod || { echo "perfbench: no sharedq module at $root" >&2; exit 2; }
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
