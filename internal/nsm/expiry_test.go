package nsm

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// TestResolveRetiresExpired fills an NSM's cache, lets every entry expire
// into its serve-stale grace, and resolves: nothing graced is retired.
// Past the grace, each further resolve's insert retires two of the old
// entries, oldest first, until none is left: what bounds a long-lived
// NSM's memory.
func TestResolveRetiresExpired(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	o := Options{Clock: clk, StaleFor: time.Hour}
	h := &HostAddr{
		name:  "hostaddr-test",
		cache: newResultCache[string](o),
		lookup: func(_ context.Context, individual string) (string, error) {
			return "addr-" + individual, nil
		},
	}
	resolve := func(host string) {
		t.Helper()
		if _, err := h.ResolveHost(context.Background(), host); err != nil {
			t.Fatal(err)
		}
	}
	const n = 64
	for i := 0; i < n; i++ {
		resolve(fmt.Sprintf("host%d.test", i))
	}
	clk.Advance(CacheTTL + time.Minute) // expired, within the grace
	resolve("graced.test")
	if got := h.cache.c.Len(); got != n+1 {
		t.Fatalf("cache holds %d entries, want %d: a graced entry was retired", got, n+1)
	}
	clk.Advance(time.Hour) // the first n past TTL plus grace
	for i := 0; i < n/2; i++ {
		resolve(fmt.Sprintf("new%d.test", i))
		if got, want := h.cache.c.Len(), n-i; got != want {
			t.Fatalf("after %d resolves the cache holds %d entries, want %d", i+1, got, want)
		}
	}
	if _, ok := h.cache.c.GetStale("graced.test", transport.ErrRefused); !ok {
		t.Fatal("the graced entry was retired")
	}
}

// TestEveryNSMTypeRetiresExpired: each NSM type's inserts retire its own
// result cache's expired entries.
func TestEveryNSMTypeRetiresExpired(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	o := Options{Clock: clk}
	bb := &BindBinding{cache: newResultCache[hrpc.Binding](o)}
	cb := &CHBinding{cache: newResultCache[hrpc.Binding](o)}
	mr := &MailRoute{cache: newResultCache[mailResult](o)}
	bb.cache.put("k", hrpc.Binding{})
	cb.cache.put("k", hrpc.Binding{})
	mr.cache.put("k", mailResult{})
	clk.Advance(CacheTTL + time.Minute)
	bb.cache.put("k2", hrpc.Binding{})
	cb.cache.put("k2", hrpc.Binding{})
	mr.cache.put("k2", mailResult{})
	for name, n := range map[string]int{
		"BindBinding": bb.cache.c.Len(), "CHBinding": cb.cache.c.Len(), "MailRoute": mr.cache.c.Len(),
	} {
		if n != 1 {
			t.Errorf("%s: cache holds %d entries after the insert, want 1", name, n)
		}
	}
}
