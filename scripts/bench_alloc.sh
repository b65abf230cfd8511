#!/usr/bin/env bash
# Alloc-regression gate for the zero-allocation wire path (PR: wire path &
# reply caches). Runs the warm-path benchmarks with -benchmem and fails if
# any exceeds its committed allocs/op bound. The bounds are the contract:
# raising one is an explicit, reviewed change to this file.
#
# Usage:
#   scripts/bench_alloc.sh           # gate (exit 1 on regression)
#   scripts/bench_alloc.sh -update   # also refresh the BENCH_wire.json baseline
set -euo pipefail
cd "$(dirname "$0")/.."

update=0
[[ "${1:-}" == "-update" ]] && update=1

# benchmark-name-prefix  package  max-allocs/op
bounds="
BenchmarkDecodeReplyWarm ./internal/transport/ 1
BenchmarkFrameMuxRequest ./internal/transport/ 1
BenchmarkEncodeMuxReplyFramed ./internal/transport/ 1
BenchmarkFindNSMWarmAllocs . 1
"

out=$(mktemp)
trap 'rm -f "$out"' EXIT

run_pkg() { # pkg bench-regex
    go test -run '^$' -bench "$2" -benchmem -benchtime 2000x "$1"
}

echo "--- bench-alloc: warm-path allocation gate"
run_pkg ./internal/transport/ 'BenchmarkDecodeReplyWarm$|BenchmarkFrameMuxRequest$|BenchmarkEncodeMuxReplyFramed$' | tee -a "$out"
run_pkg . 'BenchmarkFindNSMWarmAllocs$' | tee -a "$out"

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

if (( update )); then
    {
        echo '{'
        echo '  "comment": "Warm-path allocation baseline, refreshed by scripts/bench_alloc.sh -update. The enforced bounds live in the script; this file records the last observed numbers for EXPERIMENTS.md.",'
        first=1
        while read -r name pkg max; do
            [[ -z "$name" ]] && continue
            line=$(grep -E "^${name}(-[0-9]+)?\s" "$out" | head -1)
            allocs=$(awk '{for (i=1; i<NF; i++) if ($(i+1) == "allocs/op") print $i}' <<<"$line")
            bytes=$(awk '{for (i=1; i<NF; i++) if ($(i+1) == "B/op") print $i}' <<<"$line")
            ns=$(awk '{for (i=1; i<NF; i++) if ($(i+1) == "ns/op") print $i}' <<<"$line")
            (( first )) || echo ','
            first=0
            printf '  "%s": {"allocs_per_op": %s, "bytes_per_op": %s, "ns_per_op": %s, "bound_allocs_per_op": %s}' \
                "$name" "${allocs:-null}" "${bytes:-null}" "${ns:-null}" "$max"
        done <<<"$bounds"
        echo ''
        echo '}'
    } > BENCH_wire.json
    echo "bench-alloc: wrote BENCH_wire.json"
fi

if (( fail )); then
    echo "bench-alloc: FAILED"
    exit 1
fi
echo "bench-alloc: OK"
