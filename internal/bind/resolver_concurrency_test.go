package bind

import (
	"context"
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

// blockingBackend is a Lookuper whose calls charge a fixed simulated cost
// and, when armed, park on a channel until released — letting the
// stampede test pile an entire herd onto one in-progress lookup.
type blockingBackend struct {
	calls   atomic.Int64
	cost    time.Duration
	release chan struct{} // nil = don't block
	answers map[string][]RR
}

func (b *blockingBackend) Lookup(ctx context.Context, name string, t RRType) ([]RR, error) {
	b.calls.Add(1)
	if b.release != nil {
		select {
		case <-b.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	simtime.Charge(ctx, b.cost)
	rrs, ok := b.answers[name]
	if !ok {
		return nil, &NotFoundError{Name: name, Type: t, RCode: RCodeNXDomain}
	}
	return rrs, nil
}

// TestStampedeSingleBackendLookup is the miss-coalescing acceptance test:
// 64 concurrent misses of one cold key must cost the backend exactly one
// lookup, while every caller still experiences (is charged) the full
// simulated cost of a cache miss.
func TestStampedeSingleBackendLookup(t *testing.T) {
	const herd = 64
	backend := &blockingBackend{
		cost:    27 * time.Millisecond,
		release: make(chan struct{}),
		answers: map[string][]RR{
			"stampede.test": {A("stampede.test", "10.0.0.1", 600)},
		},
	}
	reg := metrics.NewRegistry()
	r := NewResolver(backend, ResolverConfig{Metrics: reg, CacheName: "stampede"})
	joined := reg.Counter(metrics.Labels("cache_coalesced_total", "cache", "stampede"))

	var wg sync.WaitGroup
	costs := make([]time.Duration, herd)
	errs := make([]error, herd)
	answers := make([][]RR, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			costs[i], errs[i] = simtime.Measure(context.Background(), func(ctx context.Context) error {
				rrs, err := r.Lookup(ctx, "stampede.test", TypeA)
				answers[i] = rrs
				return err
			})
		}(i)
	}

	// Release the backend only once the whole herd is attached to the one
	// flight: its leader, held by the backend, and 63 joiners.
	for joined.Value() < herd-1 {
		runtime.Gosched()
	}
	close(backend.release)
	wg.Wait()

	if got := backend.calls.Load(); got != 1 {
		t.Fatalf("backend saw %d lookups for %d concurrent misses, want 1", got, herd)
	}
	for i := 0; i < herd; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if costs[i] != backend.cost {
			t.Fatalf("caller %d charged %v, want the full miss cost %v", i, costs[i], backend.cost)
		}
		if len(answers[i]) != 1 || string(answers[i][0].Data) != "10.0.0.1" {
			t.Fatalf("caller %d got %v", i, answers[i])
		}
	}
	// Every caller must hold a private slice: corrupting one cannot
	// affect another or the cache.
	answers[0][0].Data[0] = 'X'
	if string(answers[1][0].Data) != "10.0.0.1" {
		t.Fatal("coalesced callers share one answer slice")
	}
	if rrs, _ := r.Lookup(context.Background(), "stampede.test", TypeA); string(rrs[0].Data) != "10.0.0.1" {
		t.Fatal("caller mutation reached the cache")
	}
}

// meterSpy is a Lookuper that records whether each lookup arrived with a
// simtime meter on its ctx.
type meterSpy struct{ metered []bool }

func (b *meterSpy) Lookup(ctx context.Context, name string, t RRType) ([]RR, error) {
	b.metered = append(b.metered, simtime.From(ctx) != nil)
	return []RR{A(name, "10.0.0.1", 600)}, nil
}

// TestMissKeepsTheCallersClock: the resolver installs its private replay
// meter only for a caller that brought one (the harness). A daemon's
// meterless miss must reach the backend meterless, or the RPC under it
// would time itself in simulated charges instead of wall time.
func TestMissKeepsTheCallersClock(t *testing.T) {
	backend := &meterSpy{}
	r := NewResolver(backend, ResolverConfig{})
	if _, err := r.Lookup(context.Background(), "bare.test", TypeA); err != nil {
		t.Fatal(err)
	}
	metered := simtime.WithMeter(context.Background(), simtime.NewMeter())
	if _, err := r.Lookup(metered, "metered.test", TypeA); err != nil {
		t.Fatal(err)
	}
	if len(backend.metered) != 2 || backend.metered[0] || !backend.metered[1] {
		t.Fatalf("backend saw a meter on (meterless, metered) misses = %v, want [false true]", backend.metered)
	}
}

// TestLookupAliasing is the regression test for the cache-corruption bug:
// the miss path used to return the very slice it had just cached, so a
// caller mutating its answer silently poisoned every later hit.
func TestLookupAliasing(t *testing.T) {
	backend := &blockingBackend{
		answers: map[string][]RR{
			"alias.test": {A("alias.test", "10.0.0.1", 600), A("alias.test", "10.0.0.2", 600)},
		},
	}
	r := NewResolver(backend, ResolverConfig{})
	ctx := context.Background()

	// Miss path: mutate the returned records and their Data bytes.
	got, err := r.Lookup(ctx, "alias.test", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = A("alias.test", "evil", 600)
	got[1].Data[0] = 'X'

	// Hit path: the cache must still hold the pristine answer.
	got2, err := r.Lookup(ctx, "alias.test", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if string(got2[0].Data) != "10.0.0.1" || string(got2[1].Data) != "10.0.0.2" {
		t.Fatalf("miss-path caller mutation corrupted the cache: %v", got2)
	}

	// Hit-path answers must be private too.
	got2[0].Data[0] = 'Y'
	got3, _ := r.Lookup(ctx, "alias.test", TypeA)
	if string(got3[0].Data) != "10.0.0.1" {
		t.Fatalf("hit-path caller mutation corrupted the cache: %v", got3)
	}
	if backend.calls.Load() != 1 {
		t.Fatalf("backend called %d times, want 1", backend.calls.Load())
	}
}

func TestPreloadCopiesCallerRecords(t *testing.T) {
	r := NewResolver(&blockingBackend{}, ResolverConfig{})
	rrs := []RR{A("pre.test", "10.0.0.9", 600)}
	r.Preload(rrs)
	rrs[0].Data[0] = 'X' // caller reuses its buffer
	got, err := r.Lookup(context.Background(), "pre.test", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[0].Data) != "10.0.0.9" {
		t.Fatalf("preloaded entry shares caller bytes: %q", got[0].Data)
	}
}

// TestHitsShareTheAnswer: the cache holds one Answer per set and every
// reader gets that one, the miss's caller included. A hit allocates only
// its cache key, and reading a value from the answer allocates nothing.
func TestHitsShareTheAnswer(t *testing.T) {
	backend := &blockingBackend{answers: map[string][]RR{
		"nsm1.nsm.hns": {HNSMeta("nsm1.nsm.hns", "host=june", 600), HNSMeta("nsm1.nsm.hns", "port=9", 600)},
	}}
	r := NewResolver(backend, ResolverConfig{})
	ctx := context.Background()
	var got [3]Answer
	for i := range got {
		a, err := r.LookupChain(ctx, "nsm1.nsm.hns", TypeHNSMeta, nil)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = a
	}
	if &got[0].rrs[0] != &got[1].rrs[0] || &got[1].rrs[0] != &got[2].rrs[0] {
		t.Fatal("the miss and two hits got different answers")
	}
	if n := testing.AllocsPerRun(100, func() {
		a, err := r.LookupChain(ctx, "nsm1.nsm.hns", TypeHNSMeta, nil)
		if v, ok := a.Value("port"); err != nil || !ok || v != "9" {
			t.Fatalf("port = %q, %v, %v", v, ok, err)
		}
	}); n != 1 {
		t.Errorf("hit: %v allocs, want 1 (its cache key)", n)
	}
	if backend.calls.Load() != 1 {
		t.Fatalf("backend saw %d lookups, want 1", backend.calls.Load())
	}
}

// gatedBackend answers from a zone the test mutates. An armed call takes
// its answer first and then parks — "reply computed before the update" —
// until the test releases it.
type gatedBackend struct {
	mu      sync.Mutex
	answers map[string][]RR
	calls   int
	armed   bool
	entered chan struct{} // one send per armed call, answer already in hand
	release chan struct{}
}

func (b *gatedBackend) set(name string, rrs ...RR) {
	b.mu.Lock()
	b.answers[name] = rrs
	b.mu.Unlock()
}

func (b *gatedBackend) Lookup(ctx context.Context, name string, t RRType) ([]RR, error) {
	b.mu.Lock()
	b.calls++
	rrs, ok := b.answers[name]
	armed := b.armed
	b.armed = false
	b.mu.Unlock()
	if armed {
		b.entered <- struct{}{}
		<-b.release
	}
	if !ok {
		return nil, &NotFoundError{Name: name, Type: t, RCode: RCodeNXDomain}
	}
	return rrs, nil
}

// TestInvalidationSupersedesInFlightLookup pins the order "reply computed
// before the update, invalidation handled before the reply": the fetch's
// callers get the answer they asked for, but it must not be cached — the
// next Lookup has to reach the backend and see the update, not wait out a
// 600 s TTL on the fake clock.
func TestInvalidationSupersedesInFlightLookup(t *testing.T) {
	const name = "race.test"
	old, updated := A(name, "10.0.0.1", 600), A(name, "10.0.0.2", 600)
	for _, tc := range []struct {
		name       string
		invalidate func(*Resolver)
	}{
		{"Invalidate", func(r *Resolver) { r.Invalidate(name, TypeA) }},
		{"Purge", func(r *Resolver) { r.Purge() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := &gatedBackend{
				answers: map[string][]RR{},
				armed:   true,
				entered: make(chan struct{}),
				release: make(chan struct{}),
			}
			backend.set(name, old)
			r := NewResolver(backend, ResolverConfig{Clock: simtime.NewFakeClock(time.Unix(0, 0))})
			ctx := context.Background()
			type result struct {
				rrs []RR
				err error
			}
			first := make(chan result, 1)
			go func() {
				rrs, err := r.Lookup(ctx, name, TypeA)
				first <- result{rrs, err}
			}()
			<-backend.entered
			backend.set(name, updated)
			tc.invalidate(r)
			// The next miss starts a flight of its own, and caches the
			// update, while the superseded one is still parked.
			second := make(chan result, 1)
			go func() {
				rrs, err := r.Lookup(ctx, name, TypeA)
				second <- result{rrs, err}
			}()
			select {
			case got := <-second:
				if got.err != nil || string(got.rrs[0].Data) != "10.0.0.2" {
					t.Fatalf("Lookup after invalidation = %v, %v; want the update", got.rrs, got.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the Lookup after invalidation joined the superseded flight")
			}
			close(backend.release)

			got := <-first
			if got.err != nil || string(got.rrs[0].Data) != "10.0.0.1" {
				t.Fatalf("in-flight caller got %v, %v; want the pre-update answer", got.rrs, got.err)
			}
			rrs, err := r.Lookup(ctx, name, TypeA)
			if err != nil || string(rrs[0].Data) != "10.0.0.2" {
				t.Fatalf("Lookup after the superseded fetch ended = %v, %v; its answer was cached", rrs, err)
			}
			if backend.calls != 2 {
				t.Fatalf("backend saw %d lookups, want 2", backend.calls)
			}
		})
	}
}

// TestNotFoundIsNeverCached: the resolver remembers answers only, so every
// NotFound goes to the backend and a name registered a moment later is seen
// by the next lookup, with no TTL to wait out.
func TestNotFoundIsNeverCached(t *testing.T) {
	backend := &blockingBackend{}
	r := NewResolver(backend, ResolverConfig{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := r.Lookup(ctx, "ghost.test", TypeA); !transport.CodeOf(err).NotFound() {
			t.Fatalf("want NotFoundError, got %v", err)
		}
	}
	if backend.calls.Load() != 3 {
		t.Fatalf("backend calls = %d, want 3 (a NotFound is never cached)", backend.calls.Load())
	}
}

func TestCacheKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		t    RRType
	}{
		{"fiji.cs.washington.edu", TypeA},
		{"x", TypeHNSMeta},
		{"", 0},
		{"a.b", 65535},
	} {
		want := fmt.Sprintf("%s/%d", tc.name, tc.t)
		if got := cacheKey(tc.name, tc.t); got != want {
			t.Errorf("cacheKey(%q, %d) = %q, want %q", tc.name, tc.t, got, want)
		}
	}
}

// BenchmarkCacheKey documents the satellite win: the hand-rolled append
// formats the key with a single allocation, where fmt.Sprintf pays for
// reflection and interface boxing.
func BenchmarkCacheKey(b *testing.B) {
	const name = "hostaddr-bind.ctx.hns"
	b.Run("Append", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if cacheKey(name, TypeHNSMeta) == "" {
				b.Fatal("empty key")
			}
		}
	})
	b.Run("Sprintf", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if fmt.Sprintf("%s/%d", name, TypeHNSMeta) == "" {
				b.Fatal("empty key")
			}
		}
	})
}

// BenchmarkResolverWarmParallel measures concurrent warm hits through the
// whole resolver (cache probe + copy + pricing).
func BenchmarkResolverWarmParallel(b *testing.B) {
	const keys = 128
	backend := &blockingBackend{answers: map[string][]RR{}}
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("host%d.bench.test", i)
		backend.answers[names[i]] = []RR{A(names[i], "10.0.0.1", 600)}
	}
	r := NewResolver(backend, ResolverConfig{})
	ctx := context.Background()
	for _, n := range names {
		if _, err := r.Lookup(ctx, n, TypeA); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := r.Lookup(ctx, names[i%keys], TypeA); err != nil {
				b.Fail()
			}
			i++
		}
	})
	b.ReportMetric(float64(r.Stats().LockWaits)/float64(b.N), "lock-waits/op")
}
