# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet test race bench bench-parallel bench-alloc fuzz smoke chaos examples harness outputs

all: build vet test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# The concurrent tier: parallel FindNSM/Table-3.1 arrangements and the
# cache/resolver contention micro-benchmarks.
bench-parallel:
	go test -bench 'Parallel|Contention|CacheKey' -benchmem -run NONE ./...

# Allocation gate: the warm wire path (frame encode/decode) must stay at
# <=1 alloc/op, the warm FindNSM at <=12 (<=36 through a RemoteHNS, client
# and server), a durable bindd's cold start of 20k records at <=107 and its
# restart at <=12300, a chained meta exchange at <=55 (plain, and on a
# connection holding a callback subscription) and an update exchange at <=29
# (plain, and with push on and nothing to send).
bench-alloc:
	./scripts/bench_alloc.sh

# Short exploratory fuzzing over every wire codec and text parser.
fuzz:
	go test -fuzz FuzzDecodeMessage -fuzztime 15s ./internal/bind/
	go test -fuzz FuzzParseZoneFile -fuzztime 10s ./internal/bind/
	go test -fuzz FuzzCanonicalName -fuzztime 10s ./internal/bind/
	go test -fuzz FuzzSunRPCControl -fuzztime 10s ./internal/hrpc/
	go test -fuzz FuzzCourierControl -fuzztime 10s ./internal/hrpc/
	go test -fuzz FuzzRawControl -fuzztime 10s ./internal/hrpc/
	go test -fuzz FuzzXDRDecode -fuzztime 10s ./internal/marshal/
	go test -fuzz FuzzCourierDecode -fuzztime 10s ./internal/marshal/
	go test -fuzz FuzzPackedDecode -fuzztime 10s ./internal/marshal/
	go test -fuzz FuzzFindBatchDecode -fuzztime 10s ./internal/core/
	go test -fuzz FuzzSpecValidate -fuzztime 10s ./internal/workload/
	go test -fuzz FuzzWALDecode -fuzztime 10s ./internal/store/
	go test -fuzz FuzzJournalDecode -fuzztime 10s ./internal/bind/
	go test -fuzz FuzzIXFRDecode -fuzztime 10s ./internal/bind/
	go test -fuzz FuzzQueryChainArgs -fuzztime 10s ./internal/bind/
	go test -fuzz FuzzRRSetsDecode -fuzztime 10s ./internal/bind/
	go test -fuzz FuzzAnswerSetsDecode -fuzztime 10s ./internal/bind/
	go test -fuzz FuzzNotifyDecode -fuzztime 10s ./internal/push/

# Multi-process deployment over real sockets.
smoke:
	./scripts/smoke.sh

# The failure-injection tier: the seeded availability experiment (replica
# kill, loss bursts, total blackout) plus the failover, breaker, and
# fault-plan test suites under the race detector.
chaos:
	go test -race -run 'TestRunAvailability' ./internal/experiments/
	go test -race -run 'TestFailover|TestPlan|TestFaulty|TestUnavailable' ./internal/transport/ ./internal/hrpc/
	go test -race ./internal/health/
	go run ./cmd/hnsbench -prose availability

examples:
	go run ./examples/quickstart
	go run ./examples/binding
	go run ./examples/evolving
	go run ./examples/mailrouting
	go run ./examples/filing
	go run ./examples/looseintegration

# Regenerate every paper table/figure/prose measurement into the transcript
# cmd/hnsbench's TestAllMatchesTranscript checks byte for byte.
harness:
	go run ./cmd/hnsbench -all > docs/hnsbench-output.txt.tmp
	mv docs/hnsbench-output.txt.tmp docs/hnsbench-output.txt

# The final-verification artifacts EXPERIMENTS.md points at.
outputs:
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
