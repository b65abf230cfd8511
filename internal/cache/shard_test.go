package cache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestShardCountSelection(t *testing.T) {
	cases := []struct {
		max, shards, want int
	}{
		{0, 16, 16}, // unbounded: as requested
		{0, 0, 1},   // degenerate request clamps up
		{0, 5, 8},   // rounds up to a power of two
		{0, 1 << 20, maxShards},
		{8, 16, 8}, // bounded: never more shards than capacity
		{3, 16, 2}, // rounded down to a power of two ≤ max
	}
	for _, tc := range cases {
		c := NewWithShards[int](newClock(), tc.max, tc.shards)
		if got := c.ShardCount(); got != tc.want {
			t.Errorf("NewWithShards(max=%d, shards=%d).ShardCount() = %d, want %d",
				tc.max, tc.shards, got, tc.want)
		}
	}
	// New picks a single shard for small bounded caches (exact LRU) and
	// the default for unbounded ones.
	if got := New[int](newClock(), 3).ShardCount(); got != 1 {
		t.Errorf("New(max=3).ShardCount() = %d, want 1", got)
	}
	if got := New[int](newClock(), 0).ShardCount(); got != DefaultShards {
		t.Errorf("New(max=0).ShardCount() = %d, want %d", got, DefaultShards)
	}
}

func TestShardedCapacityBound(t *testing.T) {
	// The per-shard bounds must sum to exactly the global bound.
	const max = 4100 // deliberately not a multiple of the shard count
	c := NewWithShards[int](newClock(), max, 16)
	for i := 0; i < 3*max; i++ {
		c.Put(fmt.Sprint(i), i, time.Hour)
	}
	if got := c.Len(); got > max {
		t.Fatalf("Len = %d exceeds bound %d", got, max)
	}
	total := 0
	for _, s := range c.shards {
		total += s.max
	}
	if total != max {
		t.Fatalf("shard bounds sum to %d, want %d", total, max)
	}
}

func TestShardedStatsMerge(t *testing.T) {
	c := NewWithShards[int](newClock(), 0, 8)
	const n = 200
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprint(i), i, time.Hour)
	}
	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprint(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	for i := 0; i < 50; i++ {
		c.Get(fmt.Sprintf("missing-%d", i))
	}
	st := c.Stats()
	if st.Hits != n || st.Misses != 50 {
		t.Fatalf("merged stats = %+v, want %d hits / 50 misses", st, n)
	}
	// The per-shard view must add up to the merged view, and with this
	// many distinct keys more than one shard must have seen traffic.
	var sum Stats
	busy := 0
	for _, s := range c.ShardStats() {
		sum.add(s)
		if s.Hits+s.Misses > 0 {
			busy++
		}
	}
	if sum != st {
		t.Fatalf("ShardStats sum %+v != Stats %+v", sum, st)
	}
	if busy < 2 {
		t.Fatalf("all traffic landed on %d shard(s); hash not distributing", busy)
	}
}

// TestShardedStress hammers every mutating and reading operation from many
// goroutines at once; run under -race this is the memory-safety gate for
// the sharded rewrite.
func TestShardedStress(t *testing.T) {
	clk := newClock()
	c := NewWithShards[int](clk, 2048, 16)
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
					c.Peek(k)
				case 3:
					c.Delete(k)
				case 4:
					c.Sweep()
				case 5:
					c.Preload(map[string]int{k: i, k + "x": i}, time.Minute)
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
	if c.Len() > 2048 {
		t.Fatalf("capacity bound violated: %d", c.Len())
	}
}

func TestLockWaitCounter(t *testing.T) {
	// Contention is forced, not hoped for: the test holds the only
	// shard's lock while a writer arrives, so exactly that acquisition
	// counts as a wait, and an uncontended one afterwards does not.
	c := NewWithShards[int](newClock(), 0, 1)
	s := c.shardFor("k")
	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		c.Put("k", 1, time.Hour)
		close(done)
	}()
	for c.LockWaits() == 0 {
		runtime.Gosched()
	}
	s.mu.Unlock()
	<-done
	if got := c.LockWaits(); got != 1 {
		t.Fatalf("lock waits = %d, want 1", got)
	}
	c.ResetStats()
	if c.LockWaits() != 0 {
		t.Fatal("ResetStats did not clear lock waits")
	}
	c.Get("k")
	if c.LockWaits() != 0 {
		t.Fatal("uncontended access counted as a lock wait")
	}
}
