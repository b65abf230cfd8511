package cache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hns/internal/simtime"
)

func newClock() *simtime.FakeClock {
	return simtime.NewFakeClock(time.Date(1987, 11, 8, 0, 0, 0, 0, time.UTC))
}

func TestPutGet(t *testing.T) {
	c := New[string](newClock(), 0)
	c.Put("k", "v", time.Minute)
	got, ok := c.Get("k")
	if !ok || got != "v" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("missing key found")
	}
}

func TestTTLExpiry(t *testing.T) {
	clk := newClock()
	c := New[int](clk, 0)
	c.Put("k", 1, time.Minute)
	clk.Advance(59 * time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("entry expired early")
	}
	clk.Advance(2 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("entry outlived TTL")
	}
	st := c.Stats()
	if st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
	if c.Len() != 0 {
		t.Fatal("expired entry not removed")
	}
}

func TestZeroTTLNotCached(t *testing.T) {
	c := New[int](newClock(), 0)
	c.Put("k", 1, 0)
	c.Put("k2", 2, -time.Second)
	if c.Len() != 0 {
		t.Fatal("non-positive TTL entries cached")
	}
}

func TestOverwrite(t *testing.T) {
	clk := newClock()
	c := New[int](clk, 0)
	c.Put("k", 1, time.Second)
	c.Put("k", 2, time.Hour)
	clk.Advance(time.Minute)
	got, ok := c.Get("k")
	if !ok || got != 2 {
		t.Fatalf("Get after overwrite = %d, %v", got, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[int](newClock(), 3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprint(i), i, time.Hour)
	}
	// Touch 0 so 1 is the LRU victim.
	if _, ok := c.Get("0"); !ok {
		t.Fatal("0 missing")
	}
	c.Put("3", 3, time.Hour)
	if _, ok := c.Peek("1"); ok {
		t.Fatal("LRU victim 1 survived")
	}
	for _, k := range []string{"0", "2", "3"} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("%s evicted wrongly", k)
		}
	}
	if st := c.Stats(); st.Evicted != 1 {
		t.Fatalf("Evicted = %d, want 1", st.Evicted)
	}
}

func TestPeekDoesNotCountOrPromote(t *testing.T) {
	c := New[int](newClock(), 2)
	c.Put("a", 1, time.Hour)
	c.Put("b", 2, time.Hour)
	c.Peek("a") // must not promote
	c.Put("c", 3, time.Hour)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek promoted entry")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek affected stats: %+v", st)
	}
}

func TestStatsAndHitRate(t *testing.T) {
	c := New[int](newClock(), 0)
	c.Put("k", 1, time.Hour)
	c.Get("k")
	c.Get("k")
	c.Get("nope")
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("HitRate = %f", got)
	}
	c.ResetStats()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("ResetStats left %+v", st)
	}
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty HitRate not zero")
	}
}

func TestPreload(t *testing.T) {
	c := New[int](newClock(), 0)
	c.Preload(map[string]int{"a": 1, "b": 2, "c": 3}, time.Hour)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if st := c.Stats(); st.Preloads != 3 {
		t.Fatalf("Preloads = %d", st.Preloads)
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("preloaded entry = %d, %v", v, ok)
	}
	// Preload with non-positive TTL is a no-op.
	c2 := New[int](newClock(), 0)
	c2.Preload(map[string]int{"x": 1}, 0)
	if c2.Len() != 0 {
		t.Fatal("zero-TTL preload cached")
	}
}

func TestDeleteAndPurge(t *testing.T) {
	c := New[int](newClock(), 0)
	c.Put("a", 1, time.Hour)
	c.Put("b", 2, time.Hour)
	if !c.Delete("a") {
		t.Fatal("Delete existing returned false")
	}
	if c.Delete("a") {
		t.Fatal("Delete missing returned true")
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatal("Purge left entries")
	}
	// Cache still usable after purge.
	c.Put("c", 3, time.Hour)
	if _, ok := c.Get("c"); !ok {
		t.Fatal("cache unusable after Purge")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](newClock(), 64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				k := fmt.Sprint(j % 100)
				c.Put(k, j, time.Hour)
				c.Get(k)
				if j%50 == 0 {
					c.Delete(k)
				}
			}
		}(i)
	}
	wg.Wait()
}

// Property: after any Put sequence under capacity, every inserted key is
// retrievable before its TTL.
func TestPutGetProperty(t *testing.T) {
	f := func(keys []string) bool {
		c := New[int](newClock(), 0)
		last := map[string]int{}
		for i, k := range keys {
			c.Put(k, i, time.Hour)
			last[k] = i
		}
		for k, want := range last {
			got, ok := c.Get(k)
			if !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache never exceeds its capacity bound.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(keys []string, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		c := New[int](newClock(), capacity)
		for i, k := range keys {
			c.Put(k, i, time.Hour)
			if c.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}

func TestSweep(t *testing.T) {
	clk := newClock()
	c := New[int](clk, 0)
	c.Put("short", 1, time.Minute)
	c.Put("long", 2, time.Hour)
	clk.Advance(2 * time.Minute)
	if got := c.Sweep(); got != 1 {
		t.Fatalf("Sweep dropped %d, want 1", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after sweep", c.Len())
	}
	if _, ok := c.Get("long"); !ok {
		t.Fatal("live entry swept")
	}
	// Sweeping again drops nothing and does not disturb stats semantics.
	if got := c.Sweep(); got != 0 {
		t.Fatalf("second Sweep dropped %d", got)
	}
}
