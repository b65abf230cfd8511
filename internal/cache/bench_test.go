package cache

import (
	"fmt"
	"testing"
	"time"
)

// warmCache returns a cache holding keys live entries and their keys.
func warmCache(keys int) (*TTL[int], []string) {
	c := New[int](nil, 0)
	ks := make([]string, keys)
	for i := range ks {
		ks[i] = fmt.Sprintf("host%d.cs.washington.edu/65280", i)
		c.Put(ks[i], i, time.Hour)
	}
	return c, ks
}

// BenchmarkContention runs parallel readers over a warm cache. Run it at
// -cpu 1,2,... : lock-waits/op is the contention a multi-core server
// would see on the cache's one lock (cache_lock_wait_total in a daemon).
func BenchmarkContention(b *testing.B) {
	const keys = 512
	c, ks := warmCache(keys)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.Get(ks[i%keys]); !ok {
				b.Fail()
			}
			i++
		}
	})
	b.ReportMetric(float64(c.Stats().LockWaits)/float64(b.N), "lock-waits/op")
}

// BenchmarkContentionMixed adds a write fraction (every 16th access), the
// shape of a busy resolver absorbing TTL refreshes while serving hits.
func BenchmarkContentionMixed(b *testing.B) {
	const keys = 512
	c, ks := warmCache(keys)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			k := ks[i%keys]
			if i%16 == 0 {
				c.Put(k, i, time.Hour)
			} else {
				c.Get(k)
			}
			i++
		}
	})
	b.ReportMetric(float64(c.Stats().LockWaits)/float64(b.N), "lock-waits/op")
}
