package admission

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
)

func testConfig(cfg Config) Config {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return cfg
}

func TestRateLimitPerClient(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New(testConfig(Config{Rate: 2, Clock: clk, Server: "t"}))

	// The burst (the rate, 2) admits two back-to-back requests; the third
	// sheds.
	for i := 0; i < 2; i++ {
		if err := c.Admit("alice", High); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		c.Done()
	}
	err := c.Admit("alice", High)
	var ov *Overloaded
	if !errors.As(err, &ov) || ov.Reason != "rate" {
		t.Fatalf("want rate Overloaded, got %v", err)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("RetryAfter not set: %v", ov)
	}

	// A different client has its own bucket.
	if err := c.Admit("bob", High); err != nil {
		t.Fatalf("bob should have a fresh bucket: %v", err)
	}
	c.Done()

	// Refill: 500 ms at 2/s restores one token.
	clk.Advance(500 * time.Millisecond)
	if err := c.Admit("alice", High); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	c.Done()
}

func TestBucketCapsAtBurst(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New(testConfig(Config{Rate: 3, Clock: clk}))
	if err := c.Admit("a", High); err != nil {
		t.Fatal(err)
	}
	c.Done()
	// A long idle period must not accumulate more than the burst (the
	// rate, 3) in tokens.
	clk.Advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if err := c.Admit("a", High); err == nil {
			admitted++
			c.Done()
		}
	}
	if admitted != 3 {
		t.Fatalf("burst cap: admitted %d, want 3", admitted)
	}
}

func TestInflightCapAndPriority(t *testing.T) {
	c := New(testConfig(Config{MaxInflight: 4, Server: "t"}))

	// Fill to the low watermark (3 of 4): Low work now sheds, High flows.
	for i := 0; i < 3; i++ {
		if err := c.Admit("c", Low); err != nil {
			t.Fatalf("low admit %d: %v", i, err)
		}
	}
	var ov *Overloaded
	if err := c.Admit("c", Low); !errors.As(err, &ov) || ov.Reason != "load" {
		t.Fatalf("low past watermark: want load Overloaded, got %v", err)
	}
	if err := c.Admit("c", High); err != nil {
		t.Fatalf("high admit: %v", err)
	}
	if err := c.Admit("c", High); !errors.As(err, &ov) || ov.Reason != "load" {
		t.Fatalf("high past cap: want load Overloaded, got %v", err)
	}
	if got := c.inflight; got != 4 {
		t.Fatalf("inflight = %d, want 4", got)
	}
	c.Done()
	if err := c.Admit("c", High); err != nil {
		t.Fatalf("after Done: %v", err)
	}
	for i := 0; i < 4; i++ {
		c.Done()
	}
	if got := c.inflight; got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

func TestMaxClientsOverflowBucket(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New(testConfig(Config{Rate: 1, Clock: clk}))
	for i := 0; i < DefaultMaxClients; i++ {
		if err := c.Admit(fmt.Sprint("client", i), High); err != nil {
			t.Fatal(err)
		}
		c.Done()
	}
	if got := len(c.buckets); got != DefaultMaxClients {
		t.Fatalf("clients = %d, want %d", got, DefaultMaxClients)
	}
	// Client table full: c and d share the overflow bucket (burst 1), so
	// the second overflow request sheds even though "d" never called.
	if err := c.Admit("c", High); err != nil {
		t.Fatalf("first overflow request: %v", err)
	}
	c.Done()
	var ov *Overloaded
	if err := c.Admit("d", High); !errors.As(err, &ov) {
		t.Fatalf("overflow bucket should be empty: %v", err)
	}
	if got := len(c.buckets); got != DefaultMaxClients {
		t.Fatalf("overflow grew the table: clients = %d", got)
	}
}

func TestMetricsSeries(t *testing.T) {
	reg := metrics.NewRegistry()
	c := New(Config{MaxInflight: 1, Metrics: reg, Server: "m"})
	if err := c.Admit("a", High); err != nil {
		t.Fatal(err)
	}
	if err := c.Admit("a", High); err == nil {
		t.Fatal("want shed")
	}
	c.Done()
	if got := reg.Counter(metrics.Labels("admission_admitted_total", "server", "m")).Value(); got != 1 {
		t.Fatalf("admitted = %d, want 1", got)
	}
	if got := reg.Counter(metrics.Labels("admission_shed_total", "server", "m", "reason", "load")).Value(); got != 1 {
		t.Fatalf("shed{load} = %d, want 1", got)
	}
	if got := reg.Gauge(metrics.Labels("admission_inflight", "server", "m")).Value(); got != 0 {
		t.Fatalf("inflight gauge = %d, want 0", got)
	}
}

func TestDisabledLimitsAdmitEverything(t *testing.T) {
	c := New(testConfig(Config{})) // no rate, no cap
	for i := 0; i < 100; i++ {
		if err := c.Admit("anyone", Low); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
}

func TestConcurrentAdmitRace(t *testing.T) {
	c := New(testConfig(Config{Rate: 1e6, MaxInflight: 8, Server: "race"}))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := c.Admit("client", High); err == nil {
					c.Done()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.inflight; got != 0 {
		t.Fatalf("inflight leaked: %d", got)
	}
}

func TestOverloadedError(t *testing.T) {
	e := &Overloaded{Server: "s", Reason: "rate", RetryAfter: time.Second}
	if e.Error() == "" || Low.String() != "low" || High.String() != "high" {
		t.Fatal("stringers")
	}
}
