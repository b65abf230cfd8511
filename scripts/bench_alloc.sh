#!/usr/bin/env bash
# Alloc-regression gate for the zero-allocation wire path, the warm
# FindNSM, the bindd seed and restart paths and one chained meta exchange. Runs the benchmarks with -benchmem and fails if any exceeds
# its committed allocs/op bound. The bounds are the contract: raising one
# is an explicit, reviewed change to this file.
#
# Usage:
#   scripts/bench_alloc.sh           # gate (exit 1 on regression)
set -euo pipefail
cd "$(dirname "$0")/.."

# benchmark-name-prefix  package  max-allocs/op
bounds="
BenchmarkDecodeReplyWarm ./internal/transport/ 1
BenchmarkFrameMuxRequest ./internal/transport/ 1
BenchmarkEncodeMuxReplyFramed ./internal/transport/ 1
BenchmarkFindNSMWarmAllocs . 58
BenchmarkBinddColdStart ./internal/bind/ 60000
BenchmarkBinddRestart ./internal/bind/ 38843
BenchmarkChainExchange ./internal/bind/ 67
"

out=$(mktemp)
trap 'rm -f "$out"' EXIT

run_pkg() { # pkg bench-regex [iterations]
    go test -run '^$' -bench "$2" -benchmem -benchtime "${3:-2000}x" "$1"
}

echo "--- bench-alloc: warm-path allocation gate"
run_pkg ./internal/transport/ 'BenchmarkDecodeReplyWarm$|BenchmarkFrameMuxRequest$|BenchmarkEncodeMuxReplyFramed$' | tee -a "$out"
# One warm FindNSM: six meta-cache hits, each handing back a private copy.
run_pkg . 'BenchmarkFindNSMWarmAllocs$' | tee -a "$out"
# One op loads a generated 20k-record zone: the bound is 3.0 per record.
run_pkg ./internal/bind/ 'BenchmarkBinddColdStart$' 10 | tee -a "$out"
# One op recovers that zone from a checkpoint plus 500 journaled updates.
run_pkg ./internal/bind/ 'BenchmarkBinddRestart$' 5 | tee -a "$out"
# One cold FindNSM's chained meta exchange over the sim transport, handler
# and client both.
run_pkg ./internal/bind/ 'BenchmarkChainExchange$' | tee -a "$out"

fail=0
while read -r name pkg max; do
    [[ -z "$name" ]] && continue
    line=$(grep -E "^${name}(-[0-9]+)?\s" "$out" || true)
    if [[ -z "$line" ]]; then
        echo "bench-alloc: FAIL: benchmark $name produced no output"
        fail=1
        continue
    fi
    allocs=$(awk '{for (i=1; i<NF; i++) if ($(i+1) == "allocs/op") print $i}' <<<"$line")
    if [[ -z "$allocs" ]]; then
        echo "bench-alloc: FAIL: no allocs/op in: $line"
        fail=1
    elif (( allocs > max )); then
        echo "bench-alloc: FAIL: $name = $allocs allocs/op, bound is $max"
        fail=1
    else
        echo "bench-alloc: ok: $name = $allocs allocs/op (bound $max)"
    fi
done <<<"$bounds"

if (( fail )); then
    echo "bench-alloc: FAILED"
    exit 1
fi
echo "bench-alloc: OK"
