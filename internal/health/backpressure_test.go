package health

import (
	"testing"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
)

func backpressureSet(clk simtime.Clock) *Set {
	return NewSet(Config{
		Cooldown: 5 * time.Second,
		Clock:    clk,
		Metrics:  metrics.NewRegistry(),
		Service:  "bp-test",
	})
}

// left is what remains of b's backpressure window at clk's time.
func left(b *Breaker, clk simtime.Clock) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return max(b.backoffUntil.Sub(clk.Now()), 0)
}

func TestBackpressureRefusesWithoutOpening(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	b := backpressureSet(clk).Breaker("ep")

	b.Backpressure(100 * time.Millisecond)
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow during backpressure window")
	}
	if got := b.State(); got != Closed {
		t.Fatalf("backpressure changed state to %v, want Closed", got)
	}
	if got := left(b, clk); got != 100*time.Millisecond {
		t.Fatalf("BackoffRemaining = %v, want 100ms", got)
	}

	// Window passes: calls flow again, still Closed, no probe discipline.
	clk.Advance(100 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("after window: Allow = (%v, %v), want (true, false)", ok, probe)
	}
	if got := left(b, clk); got != 0 {
		t.Fatalf("BackoffRemaining after expiry = %v", got)
	}
}

func TestBackpressureKeepsLongerWindow(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	b := backpressureSet(clk).Breaker("ep")
	b.Backpressure(200 * time.Millisecond)
	b.Backpressure(50 * time.Millisecond) // shorter: must not shrink the window
	if got := left(b, clk); got != 200*time.Millisecond {
		t.Fatalf("BackoffRemaining = %v, want 200ms", got)
	}
	b.Backpressure(0) // no-op
	if got := left(b, clk); got != 200*time.Millisecond {
		t.Fatalf("zero-duration backpressure changed window: %v", got)
	}
}

func TestBackpressureDoesNotCountAsFailure(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	reg := metrics.NewRegistry()
	s := NewSet(Config{Clock: clk, Metrics: reg, Service: "bp"})
	b := s.Breaker("ep")

	// Backpressure many times: the breaker must stay Closed (a real
	// failure threshold of 3 would have opened it).
	for i := 0; i < 10; i++ {
		b.Backpressure(time.Millisecond)
		clk.Advance(time.Millisecond)
	}
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v, want Closed", got)
	}
	if got := reg.Counter(metrics.Labels("breaker_failures_total",
		"service", "bp", "endpoint", "ep")).Value(); got != 0 {
		t.Fatalf("backpressure counted %d failures", got)
	}
	if got := reg.Counter(metrics.Labels("breaker_backpressure_total",
		"service", "bp", "endpoint", "ep")).Value(); got != 10 {
		t.Fatalf("breaker_backpressure_total = %d, want 10", got)
	}
}

func TestBackpressureInteractsWithOpenState(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	b := backpressureSet(clk).Breaker("ep")

	// Open the breaker the hard way; backpressure bookkeeping must not
	// interfere with the open/half-open machinery.
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want Open", got)
	}
	b.Backpressure(time.Second)
	if ok, _ := b.Allow(); ok {
		t.Fatal("Allow while Open")
	}
	// Cooldown passes: the half-open probe is admitted (the backpressure
	// window applies to Closed operation, not to probe recovery).
	clk.Advance(5 * time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("probe after cooldown: (%v, %v), want (true, true)", ok, probe)
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("state after probe success = %v", got)
	}
	// The stale window set while Open has long expired by now.
	if ok, _ := b.Allow(); !ok {
		t.Fatal("Allow after recovery")
	}
}
