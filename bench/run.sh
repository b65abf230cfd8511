#!/usr/bin/env bash
# The benchmark's one command. Builds the daemons and the harness from
# this checkout's sources, then runs one workload:
#
#   bench/run.sh --workload warm_resolve [--seed 1] [--seconds 12] [--trace 0|1]
#   bench/run.sh --selfcheck [-runs N] [--workload W]      (see bench/README.md)
#
# Everything it writes stays inside the checkout (.bench_build/, and
# bench/out/ for traces) apart from the durable bindd's journal, which
# goes to a temporary directory on /dev/shm and is removed on exit.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"

[ -f go.mod ] && [ -d cmd/bindd ] || {
  echo "bench/run.sh: $root is not a checkout of the repository (no go.mod, no cmd/bindd): nothing to measure" >&2
  exit 2
}

# The build cache lives in the checkout too: the first run in a fresh
# checkout compiles everything, later ones only relink what changed.
export GOCACHE="$build/gocache"
mkdir -p "$build/bin"
go build -o "$build/bin/" ./cmd/bindd ./cmd/nsmd ./cmd/hnsd ./cmd/hnsgw ./bench/hnsload

exec "$build/bin/hnsload" -bin "$build/bin" -run "$build/run-$$" -out "$root/bench/out" "$@"
