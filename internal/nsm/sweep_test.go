package nsm

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/simtime"
)

// TestSweepCacheEmptiesExpired fills an NSM's cache, lets every entry
// expire past its serve-stale grace, and sweeps: the cache is empty, as
// the long-lived daemons' periodic sweep relies on. Entries still within
// the grace survive a sweep.
func TestSweepCacheEmptiesExpired(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	o := Options{Clock: clk, CacheTTL: time.Minute, StaleFor: time.Hour}
	h := &HostAddr{
		name:  "hostaddr-test",
		cache: newResultCache[string](o),
		lookup: func(_ context.Context, individual string) (string, error) {
			return "addr-" + individual, nil
		},
	}
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := h.ResolveHost(context.Background(), fmt.Sprintf("host%d.test", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.cache.c.Len(); got != n {
		t.Fatalf("cache holds %d entries, want %d", got, n)
	}
	clk.Advance(2 * time.Minute) // expired, within the grace
	if got := h.SweepCache(); got != 0 {
		t.Fatalf("sweep within the grace dropped %d entries", got)
	}
	clk.Advance(time.Hour) // past TTL plus grace
	if got := h.SweepCache(); got != n {
		t.Fatalf("sweep dropped %d entries, want %d", got, n)
	}
	if got := h.cache.c.Len(); got != 0 {
		t.Fatalf("cache holds %d entries after the sweep", got)
	}
}

// TestSweepCacheEveryNSMType: each NSM type's SweepCache reaches its own
// result cache.
func TestSweepCacheEveryNSMType(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	o := Options{Clock: clk, CacheTTL: time.Minute}
	bb := &BindBinding{cache: newResultCache[hrpc.Binding](o)}
	cb := &CHBinding{cache: newResultCache[hrpc.Binding](o)}
	mr := &MailRoute{cache: newResultCache[mailResult](o)}
	bb.cache.put("k", hrpc.Binding{})
	cb.cache.put("k", hrpc.Binding{})
	mr.cache.put("k", mailResult{})
	clk.Advance(2 * time.Minute)
	for name, n := range map[string]interface{ SweepCache() int }{
		"BindBinding": bb, "CHBinding": cb, "MailRoute": mr,
	} {
		if got := n.SweepCache(); got != 1 {
			t.Errorf("%s: sweep dropped %d entries, want 1", name, got)
		}
	}
}
