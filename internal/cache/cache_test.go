package cache

import (
	"fmt"
	"math/rand"
	"runtime"
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
	if (Stats{}).HitRate() != 0 {
		t.Fatal("empty HitRate not zero")
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
	c := New[int](newClock(), 0)
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

// TestShardedStress hammers every mutating and reading operation from many
// goroutines at once; run under -race it is the cache's memory-safety gate.
// It keeps the name it had when the cache was split into shards; the cache
// is now one lock over one map, and the stress body is unchanged.
func TestShardedStress(t *testing.T) {
	c := New[int](newClock(), 0)
	const (
		workers = 8
		iters   = 400
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := fmt.Sprint((w*iters + i) % 500)
				switch i % 7 {
				case 0:
					c.Put(k, i, time.Hour)
				case 1:
					c.Get(k)
				case 2:
					c.GetStale(k)
				case 3:
					c.Delete(k)
				case 4:
					c.Sweep()
				case 5:
					c.Put(k+"x", i, time.Minute)
				case 6:
					if i%70 == 6 {
						c.Purge()
					} else {
						c.Stats()
						c.Len()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// The cache must still be coherent afterwards.
	c.Put("after", 1, time.Hour)
	if v, ok := c.Get("after"); !ok || v != 1 {
		t.Fatalf("cache unusable after stress: %d, %v", v, ok)
	}
}

func TestLockWaitCounter(t *testing.T) {
	// Contention is forced, not hoped for: the test holds the cache's
	// lock while a writer arrives, so exactly that acquisition counts as
	// a wait, and an uncontended one afterwards does not.
	c := New[int](newClock(), 0)
	c.mu.Lock()
	done := make(chan struct{})
	go func() {
		c.Put("k", 1, time.Hour)
		close(done)
	}()
	for c.LockWaits() == 0 {
		runtime.Gosched()
	}
	c.mu.Unlock()
	<-done
	if got := c.LockWaits(); got != 1 {
		t.Fatalf("lock waits = %d, want 1", got)
	}
	c.Get("k")
	if c.LockWaits() != 1 {
		t.Fatal("uncontended access counted as a lock wait")
	}
}

// Property: after any Put sequence, every inserted key is
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
