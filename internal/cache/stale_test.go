package cache

import (
	"testing"
	"time"

	"hns/internal/simtime"
	"hns/internal/transport"
)

// down is a failure that means the backend could not be reached.
var down = transport.ErrRefused

func TestGetStaleWithinGrace(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New[string](clk, 0)
	c.SetStaleGrace(time.Hour)

	c.Put("k", "v", time.Minute)
	clk.Advance(30 * time.Minute) // expired 29 minutes ago, within grace

	if _, ok := c.Get("k"); ok {
		t.Fatal("Get returned an expired entry as live")
	}
	v, ok := c.GetStale("k", down)
	if !ok || v != "v" {
		t.Fatalf("GetStale = (%q, %v), want the graced entry", v, ok)
	}
	st := c.Stats()
	if st.StaleServed != 1 {
		t.Fatalf("StaleServed = %d, want 1", st.StaleServed)
	}
	if st.Expired != 1 || st.Misses != 1 {
		t.Fatalf("Expired/Misses = %d/%d, want 1/1 (Get still counts the miss)", st.Expired, st.Misses)
	}
}

func TestGetStaleBeyondGrace(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New[string](clk, 0)
	c.SetStaleGrace(time.Hour)

	c.Put("k", "v", time.Minute)
	clk.Advance(2 * time.Hour) // past expiry + grace

	if _, ok := c.GetStale("k", down); ok {
		t.Fatal("GetStale served an entry beyond the grace period")
	}
	if c.Stats().StaleServed != 0 {
		t.Fatal("beyond-grace lookups must not count as stale-served")
	}
}

func TestGetStaleWithoutGraceConfigured(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New[string](clk, 0)

	c.Put("k", "v", time.Minute)
	clk.Advance(2 * time.Minute)

	if _, ok := c.GetStale("k", down); ok {
		t.Fatal("GetStale must refuse expired entries with no grace configured")
	}
	// And Get removes the expired entry exactly as before.
	if _, ok := c.Get("k"); ok {
		t.Fatal("expired entry returned live")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0 (no grace keeps nothing)", c.Len())
	}
}

func TestGetStaleReturnsLiveEntryWithoutCounting(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New[string](clk, 0)
	c.SetStaleGrace(time.Hour)

	c.Put("k", "v", time.Minute)
	if v, ok := c.GetStale("k", down); !ok || v != "v" {
		t.Fatalf("GetStale on a live entry = (%q, %v)", v, ok)
	}
	if c.Stats().StaleServed != 0 {
		t.Fatal("a live entry is not a stale serve")
	}
}

func TestPutRetiresNoGracedEntry(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New[string](clk, 0)
	c.SetStaleGrace(time.Hour)

	c.Put("dead", "v", time.Second)
	c.Put("graced", "v", time.Minute)
	// At 60m30s, "dead" (expired at 0m01s) is past expiry+grace while
	// "graced" (expired at 1m, grace until 61m) is still within it.
	clk.Advance(60*time.Minute + 30*time.Second)
	c.Put("next", "v", time.Minute)
	if got := c.Len(); got != 2 {
		t.Fatalf("Len = %d after the insert, want 2 (only the beyond-grace entry retired)", got)
	}
	if _, ok := c.GetStale("graced", down); !ok {
		t.Fatal("an insert retired a graced entry")
	}
}

func TestPutWithoutGraceRetiresExpired(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	c := New[string](clk, 0)
	c.Put("k", "v", time.Minute)
	clk.Advance(2 * time.Minute)
	c.Put("other", "v", time.Minute)
	if _, ok := c.entries["k"]; ok || c.Len() != 1 {
		t.Fatalf("Len = %d after the insert, want 1 without \"k\"", c.Len())
	}
}
