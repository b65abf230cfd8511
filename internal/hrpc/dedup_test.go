package hrpc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hns/internal/health"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

func newDedupSet(clk simtime.Clock) (*health.Set, *metrics.Registry) {
	reg := metrics.NewRegistry()
	hs := health.NewSet(health.Config{
		Cooldown: 10 * time.Second,
		Clock:    clk,
		Metrics:  reg,
		Service:  "dedup",
	})
	return hs, reg
}

func breakerFailures(reg *metrics.Registry, endpoint string) int64 {
	return reg.Counter(metrics.Labels("breaker_failures_total",
		"service", "dedup", "endpoint", endpoint)).Value()
}

// TestRecordFailureDedupsConnBroken: when a multiplexed connection dies
// with 32 calls in flight, every caller surfaces the same
// *transport.ConnBrokenError — the breaker must record exactly one
// failure, or one socket reset would trip a healthy replica's breaker.
func TestRecordFailureDedupsConnBroken(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	hs, reg := newDedupSet(clk)
	c := &Client{}
	const ep = "tahoma:bind-hrpc"

	cause := errors.New("socket reset")
	for i := 0; i < 32; i++ {
		// Callers see the shared error through their own wrapping.
		err := fmt.Errorf("call %d: %w", i, &transport.ConnBrokenError{ConnID: 7, Cause: cause})
		c.recordFailure(hs, ep, err)
	}
	if got := breakerFailures(reg, ep); got != 1 {
		t.Fatalf("32 in-flight deaths of one connection recorded %d breaker failures, want 1", got)
	}
	if got := hs.Breaker(ep).State(); got != health.Closed {
		t.Fatalf("breaker state = %v after one deduplicated reset, want Closed", got)
	}

	// A second connection dying is new evidence: one more failure.
	c.recordFailure(hs, ep, &transport.ConnBrokenError{ConnID: 8, Cause: cause})
	if got := breakerFailures(reg, ep); got != 2 {
		t.Fatalf("new ConnID recorded %d total failures, want 2", got)
	}

	// Ordinary errors are never deduplicated.
	c.recordFailure(hs, ep, errors.New("server misbehaved"))
	if got := breakerFailures(reg, ep); got != 3 {
		t.Fatalf("plain error recorded %d total failures, want 3", got)
	}
}

// TestRecordFailureDedupPerEndpoint: the dedup key is (endpoint, conn),
// so the same ConnID on two endpoints counts once each, and a replica
// cannot shadow another's failures.
func TestRecordFailureDedupPerEndpoint(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	hs, reg := newDedupSet(clk)
	c := &Client{}

	for i := 0; i < 4; i++ {
		c.recordFailure(hs, "a:1", &transport.ConnBrokenError{ConnID: 7})
		c.recordFailure(hs, "b:1", &transport.ConnBrokenError{ConnID: 7})
	}
	if got := breakerFailures(reg, "a:1"); got != 1 {
		t.Fatalf("endpoint a:1 recorded %d failures, want 1", got)
	}
	if got := breakerFailures(reg, "b:1"); got != 1 {
		t.Fatalf("endpoint b:1 recorded %d failures, want 1", got)
	}
}

// TestRecordFailureDedupConcurrent is the satellite's race shape: 32
// pending mux calls die together on distinct goroutines, all reporting
// the same ConnBrokenError concurrently. Exactly one breaker failure may
// land; run under -race this also checks brokenSeen's locking.
func TestRecordFailureDedupConcurrent(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	for round := 0; round < 20; round++ {
		hs, reg := newDedupSet(clk)
		c := &Client{}
		const ep = "tahoma:bind-hrpc"

		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.recordFailure(hs, ep, &transport.ConnBrokenError{ConnID: 42})
			}()
		}
		wg.Wait()
		if got := breakerFailures(reg, ep); got != 1 {
			t.Fatalf("round %d: 32 concurrent reports recorded %d failures, want 1", round, got)
		}
		if got := hs.Breaker(ep).State(); got != health.Closed {
			t.Fatalf("round %d: breaker %v after one deduplicated reset, want Closed", round, got)
		}
	}
}
