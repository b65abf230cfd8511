package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// coded is a failure carrying one transport.Code.
type coded transport.Code

func (c coded) Error() string        { return transport.Code(c).String() }
func (c coded) Code() transport.Code { return transport.Code(c) }

// fetchOf returns a fetch that counts its calls, charges cost, parks until
// release closes (when it is not nil) and answers v for ttl with more.
func fetchOf(calls *atomic.Int64, cost time.Duration, release chan struct{}, v string, ttl time.Duration, more ...Entry[string]) func(context.Context) (string, time.Duration, []Entry[string], error) {
	return func(ctx context.Context) (string, time.Duration, []Entry[string], error) {
		calls.Add(1)
		if release != nil {
			<-release
		}
		simtime.Charge(ctx, cost)
		return v, ttl, more, nil
	}
}

// TestFillCoalescesMisses: N concurrent Fills of one key cost the backend
// one fetch, every caller is charged that fetch's whole cost, and the
// answer is cached for the TTL the fetch returned.
func TestFillCoalescesMisses(t *testing.T) {
	const herd, cost = 16, 27 * time.Millisecond
	clk := newClock()
	c := New[string](clk, 0)
	reg := metrics.NewRegistry()
	c.Instrument(reg, "test")
	joined := reg.Counter(metrics.Labels("cache_coalesced_total", "cache", "test"))
	var calls atomic.Int64
	release := make(chan struct{})
	fetch := fetchOf(&calls, cost, release, "v", time.Minute)

	var wg sync.WaitGroup
	costs := make([]time.Duration, herd)
	for i := range herd {
		wg.Add(1)
		go func() {
			defer wg.Done()
			costs[i], _ = simtime.Measure(context.Background(), func(ctx context.Context) error {
				v, stale, err := c.Fill(ctx, "k", fetch)
				if v != "v" || stale || err != nil {
					t.Errorf("Fill = %q, %v, %v", v, stale, err)
				}
				return err
			})
		}()
	}
	for joined.Value() < herd-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("%d fetches for %d concurrent misses, want 1", n, herd)
	}
	for i, got := range costs {
		if got != cost {
			t.Fatalf("caller %d charged %v, want the whole fetch %v", i, got, cost)
		}
	}
	if got := c.Left("k"); got != time.Minute {
		t.Fatalf("answer kept for %v, want the fetch's minute", got)
	}
}

// TestFillSuperseded: an Invalidate of the key, or a Purge, landing while
// the fetch runs leaves its callers its answer but caches nothing, and the
// next Fill starts a flight of its own.
func TestFillSuperseded(t *testing.T) {
	for _, tc := range []struct {
		name       string
		invalidate func(*TTL[string])
	}{
		{"Invalidate", func(c *TTL[string]) { c.Invalidate("k") }},
		{"Purge", func(c *TTL[string]) { c.Purge() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](newClock(), 0)
			var calls atomic.Int64
			release := make(chan struct{})
			done := make(chan string)
			go func() {
				v, _, _ := c.Fill(context.Background(), "k", fetchOf(&calls, 0, release, "old", time.Hour,
					Entry[string]{Key: "side", Value: "old", TTL: time.Hour}))
				done <- v
			}()
			for calls.Load() == 0 {
				runtime.Gosched()
			}
			tc.invalidate(c)
			if v, _, _ := c.Fill(context.Background(), "k", fetchOf(&calls, 0, nil, "new", time.Hour)); v != "new" {
				t.Fatalf("the Fill after %s = %q, want its own fetch's answer", tc.name, v)
			}
			close(release)
			if v := <-done; v != "old" {
				t.Fatalf("the superseded flight's caller got %q, want its own answer", v)
			}
			if v, ok := c.Get("k"); !ok || v != "new" {
				t.Fatalf("Get(k) = %q, %v: the superseded answer was cached", v, ok)
			}
			if _, ok := c.Get("side"); ok {
				t.Fatal("the superseded flight's side entry was cached")
			}
			if n := calls.Load(); n != 2 {
				t.Fatalf("%d fetches, want 2", n)
			}
		})
	}
}

// TestFillSideEntriesNeedQuiet: a fetch's further entries are cached only
// when no key at all was invalidated while it ran; its own answer is
// cached either way.
func TestFillSideEntriesNeedQuiet(t *testing.T) {
	for _, quiet := range []bool{true, false} {
		c := New[string](newClock(), 0)
		var calls atomic.Int64
		release := make(chan struct{})
		done := make(chan struct{})
		go func() {
			c.Fill(context.Background(), "head", fetchOf(&calls, 0, release, "h", time.Hour,
				Entry[string]{Key: "tail", Value: "t", TTL: time.Hour}))
			close(done)
		}()
		for calls.Load() == 0 {
			runtime.Gosched()
		}
		if !quiet {
			c.Invalidate("elsewhere")
		}
		close(release)
		<-done
		if _, ok := c.Get("head"); !ok {
			t.Fatalf("quiet=%v: the flight's own answer was not cached", quiet)
		}
		if _, ok := c.Get("tail"); ok != quiet {
			t.Fatalf("quiet=%v: side entry cached = %v", quiet, ok)
		}
	}
}

// TestServeStaleRule is the serve-stale rule, over every failure code: an
// expired entry inside the grace answers a failed fetch, through GetStale
// and through Fill alike, exactly when the code says the backend could
// not be reached. A NotFound, a fault, a shed call, a spent budget or an
// unclassified failure never gets one, and no code gets one beyond the
// grace or without a grace.
func TestServeStaleRule(t *testing.T) {
	never := map[transport.Code]bool{
		transport.CodeNotFound: true, transport.CodeRemoteFault: true, transport.CodeOverloaded: true,
		transport.CodeBudgetExpired: true, transport.CodeUnknown: true,
	}
	for code := transport.CodeUnknown; code <= transport.CodeNotFound; code++ {
		t.Run(code.String(), func(t *testing.T) {
			cause := fmt.Errorf("lookup: %w", coded(code))
			failing := func(context.Context) (string, time.Duration, []Entry[string], error) {
				return "", 0, nil, cause
			}
			for _, tc := range []struct {
				name     string
				grace    time.Duration
				advance  time.Duration
				eligible bool
			}{
				{"inside the grace", time.Hour, 30 * time.Minute, true},
				{"beyond the grace", time.Hour, 2 * time.Hour, false},
				{"without a grace", 0, 30 * time.Minute, false},
			} {
				clk := newClock()
				c := New[string](clk, 0)
				c.SetStaleGrace(tc.grace)
				c.Put("k", "v", time.Minute)
				clk.Advance(tc.advance)
				want := tc.eligible && code.Unreachable()
				if want && never[code] {
					t.Fatalf("%s is marked unreachable", code)
				}
				if _, ok := c.GetStale("k", cause); ok != want {
					t.Errorf("%s: GetStale answered = %v, want %v", tc.name, ok, want)
				}
				v, stale, err := c.Fill(context.Background(), "k", failing)
				if stale != want || (err == nil) != want || (want && v != "v") {
					t.Errorf("%s: Fill = %q, stale %v, %v; want stale %v", tc.name, v, stale, err, want)
				}
				if !want && !errors.Is(err, cause) {
					t.Errorf("%s: Fill failed with %v, want the fetch's failure", tc.name, err)
				}
				if served := c.Stats().StaleServed; served != map[bool]int64{true: 2, false: 0}[want] {
					t.Errorf("%s: StaleServed = %d", tc.name, served)
				}
			}
		})
	}
}

// TestFillStress runs Fills, with and without further entries, against
// Invalidates, Purges, stale reads and clock advances that make the Fills'
// installs retire entries, from many goroutines; run under -race it is the
// flight's memory-safety gate.
func TestFillStress(t *testing.T) {
	clk := newClock()
	c := New[int](clk, 0)
	c.SetStaleGrace(time.Minute)
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 400 {
				k := fmt.Sprint((w*400 + i) % 50)
				switch i % 6 {
				case 0, 1, 2:
					v, _, err := c.Fill(context.Background(), k, func(context.Context) (int, time.Duration, []Entry[int], error) {
						runtime.Gosched()
						return i, time.Hour, []Entry[int]{{Key: k + "x", Value: i, TTL: time.Hour}}, nil
					})
					if err != nil || v < 0 {
						t.Errorf("Fill(%s) = %d, %v", k, v, err)
						return
					}
				case 3:
					c.Invalidate(k)
				case 4:
					c.GetStale(k, transport.ErrRefused)
					clk.Advance(10 * time.Second)
				case 5:
					if i%60 == 5 {
						c.Purge()
					}
				}
			}
		}()
	}
	wg.Wait()
	if v, _, err := c.Fill(context.Background(), "after", func(context.Context) (int, time.Duration, []Entry[int], error) {
		return 1, time.Hour, nil, nil
	}); err != nil || v != 1 {
		t.Fatalf("cache unusable after stress: %d, %v", v, err)
	}
	if v, ok := c.Get("after"); !ok || v != 1 {
		t.Fatalf("Get after the stress's Fill = %d, %v", v, ok)
	}
}
