package health

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
)

func newTestSet(clk simtime.Clock) (*Set, *metrics.Registry) {
	reg := metrics.NewRegistry()
	s := NewSet(Config{
		Cooldown: 10 * time.Second,
		Clock:    clk,
		Metrics:  reg,
		Service:  "test",
	})
	return s, reg
}

func counter(t *testing.T, reg *metrics.Registry, name, endpoint string) int64 {
	t.Helper()
	return reg.Counter(metrics.Labels(name, "service", "test", "endpoint", endpoint)).Value()
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, reg := newTestSet(clk)
	b := s.Breaker("a:1")

	for i := 0; i < 2; i++ {
		if ok, _ := b.Allow(); !ok {
			t.Fatalf("failure %d: breaker refused while under threshold", i)
		}
		b.Failure()
	}
	if got := b.State(); got != Closed {
		t.Fatalf("after 2 failures state = %v, want Closed", got)
	}
	b.Failure() // third consecutive failure
	if got := b.State(); got != Open {
		t.Fatalf("after 3 failures state = %v, want Open", got)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("open breaker admitted a call before cooldown")
	}
	if got := counter(t, reg, "breaker_opens_total", "a:1"); got != 1 {
		t.Fatalf("breaker_opens_total = %d, want 1", got)
	}
	if got := reg.Gauge(metrics.Labels("endpoint_health", "service", "test", "endpoint", "a:1")).Value(); got != 0 {
		t.Fatalf("endpoint_health = %d, want 0 while open", got)
	}
}

func TestSuccessResetsConsecutiveFailures(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, _ := newTestSet(clk)
	b := s.Breaker("a:1")

	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if got := b.State(); got != Closed {
		t.Fatalf("interleaved success should reset the streak; state = %v", got)
	}
}

func TestHalfOpenProbeAdmitsExactlyOne(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, reg := newTestSet(clk)
	b := s.Breaker("a:1")
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(10 * time.Second)

	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("post-cooldown Allow = (%v, %v), want probe admission", ok, probe)
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen", got)
	}
	// A second caller while the probe is in flight is refused.
	if ok, _ := b.Allow(); ok {
		t.Fatal("half-open breaker admitted a second caller during the probe")
	}
	if got := counter(t, reg, "breaker_probes_total", "a:1"); got != 1 {
		t.Fatalf("breaker_probes_total = %d, want 1", got)
	}
}

func TestProbeSuccessCloses(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, _ := newTestSet(clk)
	b := s.Breaker("a:1")
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(10 * time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("expected probe admission")
	}
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("state after probe success = %v, want Closed", got)
	}
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("closed breaker Allow = (%v, %v), want plain admission", ok, probe)
	}
}

func TestProbeFailureReopensAndRestartsCooldown(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, reg := newTestSet(clk)
	b := s.Breaker("a:1")
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(10 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("expected probe admission")
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("state after probe failure = %v, want Open", got)
	}
	// Cooldown restarted at the probe failure: still refused short of it.
	clk.Advance(9 * time.Second)
	if ok, _ := b.Allow(); ok {
		t.Fatal("reopened breaker admitted a call before the new cooldown elapsed")
	}
	clk.Advance(time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("expected a second probe after the restarted cooldown")
	}
	if got := counter(t, reg, "breaker_opens_total", "a:1"); got != 2 {
		t.Fatalf("breaker_opens_total = %d, want 2 (initial open + probe failure)", got)
	}
}

func TestSetSharesBreakerPerEndpoint(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, _ := newTestSet(clk)
	if s.Breaker("a:1") != s.Breaker("a:1") {
		t.Fatal("same endpoint should return the same breaker")
	}
	if s.Breaker("a:1") == s.Breaker("b:1") {
		t.Fatal("distinct endpoints should get distinct breakers")
	}
}

func TestDiscardMetricsAreNoOp(t *testing.T) {
	s := NewSet(Config{Metrics: metrics.Discard})
	b := s.Breaker("a:1")
	b.Failure()
	b.Success()
	if ok, _ := b.Allow(); !ok {
		t.Fatal("breaker logic should work with Discard metrics")
	}
}

func TestConcurrentBreakerAccess(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, _ := newTestSet(clk)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			b := s.Breaker("shared:1")
			for i := 0; i < 200; i++ {
				if ok, _ := b.Allow(); ok {
					if (g+i)%3 == 0 {
						b.Failure()
					} else {
						b.Success()
					}
				}
				clk.Advance(time.Second)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestHalfOpenProbeRacesFailure: while the half-open probe is in flight,
// a straggler from the pre-open era reports Failure. A half-open failure
// is authoritative — the breaker re-opens immediately (second open,
// cooldown restarted) and the probe slot clears, so when the probe itself
// later reports Success the breaker closes again: Success is always
// authoritative, whatever raced in between.
func TestHalfOpenProbeRacesFailure(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, reg := newTestSet(clk)
	b := s.Breaker("a:1")

	for i := 0; i < 3; i++ {
		b.Failure()
	}
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want Open", got)
	}

	clk.Advance(11 * time.Second)
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("Allow after cooldown = (%v, %v), want the probe slot", ok, probe)
	}

	// The straggler's failure lands while the probe is still in flight.
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("after racing failure state = %v, want Open", got)
	}
	if got := counter(t, reg, "breaker_opens_total", "a:1"); got != 2 {
		t.Fatalf("breaker_opens_total = %d, want 2 (initial + re-open)", got)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("re-opened breaker admitted a call with no cooldown served")
	}

	// The probe's success arrives late — success is authoritative.
	b.Success()
	if got := b.State(); got != Closed {
		t.Fatalf("after probe success state = %v, want Closed", got)
	}
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("closed breaker Allow = (%v, %v), want plain admit", ok, probe)
	}
	if got := counter(t, reg, "breaker_probes_total", "a:1"); got != 1 {
		t.Fatalf("breaker_probes_total = %d, want 1", got)
	}
}

// TestHalfOpenProbeFailureReopens: the probe itself fails — back to Open
// immediately, and the next caller inside the fresh cooldown is refused;
// after another cooldown a second probe is admitted.
func TestHalfOpenProbeFailureReopens(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, reg := newTestSet(clk)
	b := s.Breaker("a:1")

	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(11 * time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow = (%v, %v), want probe", ok, probe)
	}
	b.Failure()
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want Open after failed probe", got)
	}
	clk.Advance(5 * time.Second) // half the cooldown: still refused
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker admitted a call before the restarted cooldown elapsed")
	}
	clk.Advance(6 * time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("second probe Allow = (%v, %v), want probe", ok, probe)
	}
	if got := counter(t, reg, "breaker_probes_total", "a:1"); got != 2 {
		t.Fatalf("breaker_probes_total = %d, want 2", got)
	}
	if got := counter(t, reg, "breaker_opens_total", "a:1"); got != 2 {
		t.Fatalf("breaker_opens_total = %d, want 2", got)
	}
}

// TestOpenStragglerRestartsCooldown: a failure reported while already
// Open (a second in-flight call finishing late) restarts the cooldown
// instead of being lost — the endpoint just demonstrated it is still
// dead, so probing is postponed.
func TestOpenStragglerRestartsCooldown(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, reg := newTestSet(clk)
	b := s.Breaker("a:1")

	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.Advance(9 * time.Second) // one second shy of cooldown
	b.Failure()                  // straggler: restarts the clock
	if got := counter(t, reg, "breaker_opens_total", "a:1"); got != 1 {
		t.Fatalf("straggler while Open bumped breaker_opens_total to %d, want 1", got)
	}
	clk.Advance(2 * time.Second) // past the original deadline, inside the new one
	if ok, _ := b.Allow(); ok {
		t.Fatal("breaker admitted a probe on the pre-straggler cooldown")
	}
	clk.Advance(9 * time.Second)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow = (%v, %v), want probe after restarted cooldown", ok, probe)
	}
}

// TestHalfOpenRaceHammer drives Allow/Success/Failure from many
// goroutines across repeated open/probe/close cycles; run under -race it
// checks the breaker's locking, and afterwards the breaker must still be
// in a legal state with exactly one probe admitted per half-open window.
func TestHalfOpenRaceHammer(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	s, _ := newTestSet(clk)
	b := s.Breaker("a:1")

	for cycle := 0; cycle < 50; cycle++ {
		for i := 0; i < 3; i++ {
			b.Failure()
		}
		clk.Advance(11 * time.Second)

		var probes int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ok, probe := b.Allow()
				if probe {
					atomic.AddInt64(&probes, 1)
				}
				if ok {
					if g%2 == 0 {
						b.Success()
					} else {
						b.Failure()
					}
				}
			}(g)
		}
		wg.Wait()
		if probes > 1 {
			t.Fatalf("cycle %d admitted %d probes in one half-open window", cycle, probes)
		}
		b.Success() // settle to Closed for the next cycle
		if got := b.State(); got != Closed {
			t.Fatalf("cycle %d: state = %v after settling Success", cycle, got)
		}
	}
}
