// Package cache provides the TTL cache underlying both the BIND resolver
// cache and the HNS meta-naming cache.
//
// The paper's caching scheme is deliberately simple: "Cached data is tagged
// with a time-to-live field for cache invalidation. While this simplistic
// mechanism can cause cache consistency problems, it would not make sense
// to use a more sophisticated scheme because the source of our cached data
// (BIND) also uses this mechanism." This package implements exactly that —
// TTL expiry, no invalidation protocol — plus LRU bounding and hit/miss
// accounting, which the colocation analysis (equation 1) needs.
//
// The cache is storage only; *pricing* an access (demarshalled probe vs
// demarshal-on-every-access, Table 3.2) is the caller's job, because only
// the caller knows what form it stores entries in.
//
// Internally the cache is sharded: keys hash (FNV-1a) onto a power-of-two
// number of shards, each with its own mutex, map, LRU list, and stats.
// Concurrent readers of distinct keys therefore never contend, which is
// what lets the warm FindNSM path scale with cores (the paper's cache
// arithmetic assumed a single caller; a server front-ending millions of
// users does not have that luxury). Stats are merged across shards at
// snapshot time, so the Stats/HitRate numbers the colocation analysis
// reads are unchanged by sharding. Small bounded caches stay single-shard
// so their LRU victim selection remains exact.
package cache

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
)

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits        int64
	Misses      int64
	Expired     int64 // misses caused by TTL expiry of a present entry
	Evicted     int64 // entries discarded by the LRU bound
	Preloads    int64 // entries installed by bulk preload
	StaleServed int64 // expired entries handed out by GetStale (degraded mode)
}

// HitRate returns hits/(hits+misses), or 0 with no accesses. This is the
// "p" and "p+q" of the paper's equation (1).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Expired += o.Expired
	s.Evicted += o.Evicted
	s.Preloads += o.Preloads
	s.StaleServed += o.StaleServed
}

type entry[V any] struct {
	key     string
	value   V
	expires time.Time
	elem    *list.Element
}

// shard is one independently locked slice of the key space.
type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	order   *list.List // front = most recently used
	stats   Stats
	max     int // this shard's entry bound; 0 = unbounded
}

// DefaultShards is the shard count used for unbounded and large caches.
// Power of two so shard selection is a mask.
const DefaultShards = 16

// minShardedMax is the smallest bounded capacity that gets sharded. Below
// it a single shard keeps LRU victim selection exact, which tiny caches
// (and the tests pinning the paper's eviction behaviour) care about more
// than they care about lock contention.
const minShardedMax = 1024

// maxShards bounds explicit shard requests.
const maxShards = 256

// TTL is a TTL + LRU cache. The zero value is not usable; call New.
// TTL is safe for concurrent use.
type TTL[V any] struct {
	clock  simtime.Clock
	max    int // 0 = unbounded
	mask   uint32
	stale  time.Duration // grace period expired entries remain servable via GetStale
	shards []*shard[V]

	// lockWaits counts shard-lock acquisitions that found the lock held
	// (TryLock failed) — a direct contention signal, exposed as
	// cache_lock_wait_total.
	lockWaits atomic.Int64
}

// New creates a cache reading time from clock and holding at most max
// entries (0 for unbounded). A nil clock means the real clock. The shard
// count is chosen automatically; use NewWithShards to pin it.
func New[V any](clock simtime.Clock, max int) *TTL[V] {
	shards := DefaultShards
	if max > 0 && max < minShardedMax {
		shards = 1
	}
	return NewWithShards[V](clock, max, shards)
}

// NewWithShards creates a cache with an explicit shard count (rounded up
// to a power of two, clamped to [1, 256] and — for bounded caches — to at
// most max, so no shard's capacity rounds down to zero). Shards = 1
// reproduces the classic single-mutex cache; the parallel benchmark tier
// uses that as its contention baseline.
func NewWithShards[V any](clock simtime.Clock, max, shards int) *TTL[V] {
	if clock == nil {
		clock = simtime.RealClock{}
	}
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	// A bounded cache never gets more shards than entries, or a shard's
	// capacity would round down to zero (which means "unbounded").
	for max > 0 && n > max {
		n >>= 1
	}
	c := &TTL[V]{
		clock:  clock,
		max:    max,
		mask:   uint32(n - 1),
		shards: make([]*shard[V], n),
	}
	// Distribute a bounded capacity across shards so the global bound
	// (sum of shard bounds) is exactly max.
	base, rem := 0, 0
	if max > 0 {
		base, rem = max/n, max%n
	}
	for i := range c.shards {
		sm := 0
		if max > 0 {
			sm = base
			if i < rem {
				sm++
			}
		}
		c.shards[i] = &shard[V]{
			entries: make(map[string]*entry[V]),
			order:   list.New(),
			max:     sm,
		}
	}
	return c
}

// ShardCount reports how many shards the cache was built with.
func (c *TTL[V]) ShardCount() int { return len(c.shards) }

// shardFor selects the shard owning key (inlined FNV-1a; importing
// hash/fnv would allocate a hasher per access).
func (c *TTL[V]) shardFor(key string) *shard[V] {
	if c.mask == 0 {
		return c.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h&c.mask]
}

// lock acquires s.mu, counting the acquisition as contended when the lock
// was already held. The TryLock fast path costs one atomic on the
// uncontended path.
func (c *TTL[V]) lock(s *shard[V]) {
	if s.mu.TryLock() {
		return
	}
	c.lockWaits.Add(1)
	s.mu.Lock()
}

// LockWaits reports how many shard-lock acquisitions found the lock held.
func (c *TTL[V]) LockWaits() int64 { return c.lockWaits.Load() }

// SetStaleGrace makes expired entries linger for grace past their expiry,
// servable through GetStale — RFC 8767's "serve stale" degraded mode. It
// must be set before the cache sees concurrent use (it reconfigures expiry
// handling, not a per-call option). Zero (the default) removes expired
// entries on access exactly as before.
func (c *TTL[V]) SetStaleGrace(grace time.Duration) {
	if grace < 0 {
		grace = 0
	}
	c.stale = grace
}

// Get returns the live entry for key. Expired entries count as misses;
// they are removed unless a stale grace keeps them servable via GetStale.
func (c *TTL[V]) Get(key string) (V, bool) {
	s := c.shardFor(key)
	c.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		var zero V
		return zero, false
	}
	if now := c.clock.Now(); !now.Before(e.expires) {
		if c.stale <= 0 || !now.Before(e.expires.Add(c.stale)) {
			s.removeLocked(e)
		}
		s.stats.Misses++
		s.stats.Expired++
		var zero V
		return zero, false
	}
	s.order.MoveToFront(e.elem)
	s.stats.Hits++
	return e.value, true
}

// GetStale returns the entry for key even if expired, as long as it is
// within the stale grace period — the degraded-mode answer when every
// backend replica is down. Served entries count in Stats.StaleServed.
// Live entries are returned too (counting as stale only when actually
// expired). Returns false with no grace configured and the entry expired.
func (c *TTL[V]) GetStale(key string) (V, bool) {
	s := c.shardFor(key)
	c.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	now := c.clock.Now()
	if now.Before(e.expires) {
		return e.value, true
	}
	if c.stale <= 0 || !now.Before(e.expires.Add(c.stale)) {
		var zero V
		return zero, false
	}
	s.stats.StaleServed++
	return e.value, true
}

// Peek returns the live entry for key without touching LRU order or stats.
func (c *TTL[V]) Peek(key string) (V, bool) {
	s := c.shardFor(key)
	c.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok || !c.clock.Now().Before(e.expires) {
		var zero V
		return zero, false
	}
	return e.value, true
}

// Put installs value under key with the given TTL. Non-positive TTLs are
// not cached (matching BIND: a zero TTL means "do not cache").
func (c *TTL[V]) Put(key string, value V, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	s := c.shardFor(key)
	c.lock(s)
	defer s.mu.Unlock()
	c.putLocked(s, key, value, ttl)
}

func (c *TTL[V]) putLocked(s *shard[V], key string, value V, ttl time.Duration) {
	if e, ok := s.entries[key]; ok {
		e.value = value
		e.expires = c.clock.Now().Add(ttl)
		s.order.MoveToFront(e.elem)
		return
	}
	e := &entry[V]{key: key, value: value, expires: c.clock.Now().Add(ttl)}
	e.elem = s.order.PushFront(e)
	s.entries[key] = e
	for s.max > 0 && len(s.entries) > s.max {
		oldest := s.order.Back()
		if oldest == nil {
			break
		}
		s.removeLocked(oldest.Value.(*entry[V]))
		s.stats.Evicted++
	}
}

// Preload bulk-installs entries (the zone-transfer preloading experiment).
// Existing entries are overwritten.
func (c *TTL[V]) Preload(items map[string]V, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	for k, v := range items {
		s := c.shardFor(k)
		c.lock(s)
		c.putLocked(s, k, v, ttl)
		s.stats.Preloads++
		s.mu.Unlock()
	}
}

// Delete removes key, reporting whether it was present.
func (c *TTL[V]) Delete(key string) bool {
	s := c.shardFor(key)
	c.lock(s)
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if ok {
		s.removeLocked(e)
	}
	return ok
}

func (s *shard[V]) removeLocked(e *entry[V]) {
	delete(s.entries, e.key)
	s.order.Remove(e.elem)
}

// Sweep removes expired entries proactively, returning how many were
// dropped. Expired entries are otherwise removed lazily on access, so
// long-lived servers (hnsd, the NSM daemons) call Sweep periodically to
// keep dead data from pinning memory. Shards are swept one at a time, so
// a sweep never stalls readers of the whole cache.
func (c *TTL[V]) Sweep() int {
	now := c.clock.Now()
	dropped := 0
	for _, s := range c.shards {
		c.lock(s)
		for _, e := range s.entries {
			// With a stale grace configured, expired-but-graced entries
			// stay servable for degraded mode; only truly dead ones go.
			if !now.Before(e.expires.Add(c.stale)) {
				s.removeLocked(e)
				dropped++
			}
		}
		s.mu.Unlock()
	}
	return dropped
}

// Purge empties the cache (stats are kept).
func (c *TTL[V]) Purge() {
	for _, s := range c.shards {
		c.lock(s)
		s.entries = make(map[string]*entry[V])
		s.order.Init()
		s.mu.Unlock()
	}
}

// Len reports the number of entries, including any not yet expired-out.
func (c *TTL[V]) Len() int {
	n := 0
	for _, s := range c.shards {
		c.lock(s)
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters, merged across shards.
func (c *TTL[V]) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		c.lock(s)
		out.add(s.stats)
		s.mu.Unlock()
	}
	return out
}

// ShardStats returns each shard's counters — the access distribution the
// parallel benchmark tier inspects for hash balance.
func (c *TTL[V]) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		c.lock(s)
		out[i] = s.stats
		s.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the counters (used between benchmark phases).
func (c *TTL[V]) ResetStats() {
	for _, s := range c.shards {
		c.lock(s)
		s.stats = Stats{}
		s.mu.Unlock()
	}
	c.lockWaits.Store(0)
}

// Instrument exposes the cache's counters as gauge series on r, labeled
// cache=<name>: cache_hits_total, cache_misses_total, cache_expired_total,
// cache_evicted_total, cache_preloads_total, cache_entries, plus the
// concurrency series cache_shards, cache_lock_wait_total, and per-shard
// cache_shard_accesses{shard=i}. The series read the existing Stats at
// snapshot time, so instrumenting adds no work to the access path.
func (c *TTL[V]) Instrument(r *metrics.Registry, name string) {
	series := func(metric string, read func(Stats) int64) {
		r.GaugeFunc(metrics.Labels(metric, "cache", name), func() int64 {
			return read(c.Stats())
		})
	}
	series("cache_hits_total", func(s Stats) int64 { return s.Hits })
	series("cache_misses_total", func(s Stats) int64 { return s.Misses })
	series("cache_expired_total", func(s Stats) int64 { return s.Expired })
	series("cache_evicted_total", func(s Stats) int64 { return s.Evicted })
	series("cache_preloads_total", func(s Stats) int64 { return s.Preloads })
	series("cache_stale_served_total", func(s Stats) int64 { return s.StaleServed })
	r.GaugeFunc(metrics.Labels("cache_entries", "cache", name), func() int64 {
		return int64(c.Len())
	})
	r.GaugeFunc(metrics.Labels("cache_shards", "cache", name), func() int64 {
		return int64(c.ShardCount())
	})
	r.GaugeFunc(metrics.Labels("cache_lock_wait_total", "cache", name), c.LockWaits)
	for i := range c.shards {
		s := c.shards[i]
		r.GaugeFunc(metrics.Labels("cache_shard_accesses",
			"cache", name, "shard", strconv.Itoa(i)), func() int64 {
			c.lock(s)
			defer s.mu.Unlock()
			return s.stats.Hits + s.stats.Misses
		})
	}
}
