// Package cache provides the TTL cache underlying both the BIND resolver
// cache and the HNS meta-naming cache.
//
// The paper's caching scheme is deliberately simple: "Cached data is tagged
// with a time-to-live field for cache invalidation. While this simplistic
// mechanism can cause cache consistency problems, it would not make sense
// to use a more sophisticated scheme because the source of our cached data
// (BIND) also uses this mechanism." This package implements exactly that —
// TTL expiry, no invalidation protocol, no size bound — plus the hit/miss
// accounting the colocation analysis (equation 1) needs. What bounds a
// cache's memory is its entries' TTLs and the Sweep a long-lived server
// runs.
//
// The cache is storage only; *pricing* an access (demarshalled probe vs
// demarshal-on-every-access, Table 3.2) is the caller's job, because only
// the caller knows what form it stores entries in.
package cache

import (
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

type entry[V any] struct {
	value   V
	expires time.Time
}

// TTL is a TTL cache: one mutex over one map. The zero value is not
// usable; call New. TTL is safe for concurrent use.
type TTL[V any] struct {
	clock simtime.Clock
	stale time.Duration // grace period expired entries remain servable via GetStale

	mu      sync.Mutex
	entries map[string]entry[V]
	stats   Stats

	// lockWaits counts lock acquisitions that found the lock held
	// (TryLock failed) — a direct contention signal, exposed as
	// cache_lock_wait_total.
	lockWaits atomic.Int64
}

// New creates an unbounded cache reading time from clock; a nil clock
// means the real clock. The int is ignored: it is a retired entry bound
// kept only so bench/hnsload, which still passes 0, compiles. Every other
// caller passes 0 too.
func New[V any](clock simtime.Clock, _ int) *TTL[V] {
	if clock == nil {
		clock = simtime.RealClock{}
	}
	return &TTL[V]{clock: clock, entries: make(map[string]entry[V])}
}

// lock acquires c.mu, counting the acquisition as contended when the lock
// was already held. The TryLock fast path costs one atomic on the
// uncontended path.
func (c *TTL[V]) lock() {
	if c.mu.TryLock() {
		return
	}
	c.lockWaits.Add(1)
	c.mu.Lock()
}

// LockWaits reports how many lock acquisitions found the lock held.
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
	c.lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	if now := c.clock.Now(); !now.Before(e.expires) {
		if c.stale <= 0 || !now.Before(e.expires.Add(c.stale)) {
			delete(c.entries, key)
		}
		c.stats.Misses++
		c.stats.Expired++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	return e.value, true
}

// GetStale returns the entry for key even if expired, as long as it is
// within the stale grace period — the degraded-mode answer when every
// backend replica is down. Served entries count in Stats.StaleServed.
// Live entries are returned too (counting as stale only when actually
// expired). Returns false with no grace configured and the entry expired.
func (c *TTL[V]) GetStale(key string) (V, bool) {
	c.lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
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
	c.stats.StaleServed++
	return e.value, true
}

// Put installs value under key with the given TTL. Non-positive TTLs are
// not cached (matching BIND: a zero TTL means "do not cache").
func (c *TTL[V]) Put(key string, value V, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	c.lock()
	defer c.mu.Unlock()
	c.entries[key] = entry[V]{value: value, expires: c.clock.Now().Add(ttl)}
}

// Delete removes key, reporting whether it was present.
func (c *TTL[V]) Delete(key string) bool {
	c.lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	delete(c.entries, key)
	return ok
}

// Sweep removes expired entries proactively, returning how many were
// dropped. Expired entries are otherwise removed lazily on access, so
// long-lived servers (hnsd, the NSM daemons) call Sweep periodically to
// keep dead data from pinning memory.
func (c *TTL[V]) Sweep() int {
	now := c.clock.Now()
	dropped := 0
	c.lock()
	defer c.mu.Unlock()
	for k, e := range c.entries {
		// With a stale grace configured, expired-but-graced entries
		// stay servable for degraded mode; only truly dead ones go.
		if !now.Before(e.expires.Add(c.stale)) {
			delete(c.entries, k)
			dropped++
		}
	}
	return dropped
}

// Purge empties the cache (stats are kept).
func (c *TTL[V]) Purge() {
	c.lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]entry[V])
}

// Len reports the number of entries, including any not yet expired-out.
func (c *TTL[V]) Len() int {
	c.lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *TTL[V]) Stats() Stats {
	c.lock()
	defer c.mu.Unlock()
	return c.stats
}

// Instrument exposes the cache's counters as gauge series on r, labeled
// cache=<name>: cache_hits_total, cache_misses_total, cache_expired_total,
// cache_stale_served_total, cache_entries and cache_lock_wait_total. The
// series read the existing Stats at snapshot time, so instrumenting adds
// no work to the access path.
func (c *TTL[V]) Instrument(r *metrics.Registry, name string) {
	series := func(metric string, read func(Stats) int64) {
		r.GaugeFunc(metrics.Labels(metric, "cache", name), func() int64 {
			return read(c.Stats())
		})
	}
	series("cache_hits_total", func(s Stats) int64 { return s.Hits })
	series("cache_misses_total", func(s Stats) int64 { return s.Misses })
	series("cache_expired_total", func(s Stats) int64 { return s.Expired })
	series("cache_stale_served_total", func(s Stats) int64 { return s.StaleServed })
	r.GaugeFunc(metrics.Labels("cache_entries", "cache", name), func() int64 {
		return int64(c.Len())
	})
	r.GaugeFunc(metrics.Labels("cache_lock_wait_total", "cache", name), c.LockWaits)
}
