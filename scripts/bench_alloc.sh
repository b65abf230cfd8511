#!/usr/bin/env bash
# Alloc-regression gate for the zero-allocation wire path, the warm
# FindNSM (local, through the HNS program, and from a caller's memo), the bindd seed and restart
# paths, one chained meta exchange (plain, and on a connection holding a
# callback subscription) and one update exchange (plain, and with push on). Runs the benchmarks with -benchmem
# and fails if any exceeds its committed allocs/op bound. The bounds are the contract: raising one
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
BenchmarkFindNSMWarmAllocs . 12
BenchmarkRemoteFindNSMWarmAllocs ./internal/core/ 36
BenchmarkRemoteFindNSMMemoHitAllocs ./internal/core/ 1
BenchmarkBinddColdStart ./internal/bind/ 103
BenchmarkBinddRestart ./internal/bind/ 12272
BenchmarkChainExchange ./internal/bind/ 55
BenchmarkChainExchangeCallback ./internal/bind/ 55
BenchmarkUpdateExchange ./internal/bind/ 29
BenchmarkUpdateExchangePush ./internal/bind/ 29
"

out=$(mktemp)
trap 'rm -f "$out"' EXIT

run_pkg() { # pkg bench-regex [iterations]
    go test -run '^$' -bench "$2" -benchmem -benchtime "${3:-2000}x" "$1"
}

echo "--- bench-alloc: warm-path allocation gate"
run_pkg ./internal/transport/ 'BenchmarkDecodeReplyWarm$|BenchmarkFrameMuxRequest$|BenchmarkEncodeMuxReplyFramed$' | tee -a "$out"
# One warm FindNSM: six meta-cache hits, each sharing the cache's one
# immutable answer and reading its values in place; no trace is formatted.
run_pkg . 'BenchmarkFindNSMWarmAllocs$' | tee -a "$out"
# The same warm FindNSM through a RemoteHNS over the sim transport, client
# and server both: the HNS program's call, carrying no individual name and
# answering no NSM host name. Its world's HNS holds no meta subscription,
# so its caller never watches and every call still crosses the wire. Then
# a warm FindNSM a caller watching a subscribed HNS answers from its memo:
# the memo key is its one allocation.
run_pkg ./internal/core/ 'BenchmarkRemoteFindNSMWarmAllocs$|BenchmarkRemoteFindNSMMemoHitAllocs$' | tee -a "$out"
# One op is bind.Boot seeding a generated 20k-record zone (20 006 records)
# into a fresh store: the bound is its measured 103, so one allocation
# more fails it. Both bindd benchmarks run with the collector off: each
# GC cycle makes the runtime's unique-map cleanup allocate two objects,
# which made these counts vary with the cycles a run met.
run_pkg ./internal/bind/ 'BenchmarkBinddColdStart$' 10 | tee -a "$out"
# One op is bind.Boot recovering that zone from a checkpoint plus 500
# journaled updates; the bound is its measured 12 272.
run_pkg ./internal/bind/ 'BenchmarkBinddRestart$' 5 | tee -a "$out"
# One cold FindNSM's chained meta exchange over the sim transport, handler
# and client both; then the same on a connection holding a callback
# subscription, bounded at the plain count: a read's re-arm allocates
# nothing.
run_pkg ./internal/bind/ 'BenchmarkChainExchange$|BenchmarkChainExchangeCallback$' | tee -a "$out"
# One flip's BINDUpdate round trip over the sim transport, client and
# handler both; the bound is its measured 29. Then the same with push on
# and a callback subscriber already told the name, bounded at the plain
# count: an update no sink is owed lists its names without allocating.
run_pkg ./internal/bind/ 'BenchmarkUpdateExchange$|BenchmarkUpdateExchangePush$' | tee -a "$out"

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
