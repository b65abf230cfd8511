// Package cache provides the read-through TTL cache under every cache
// layer: hnsd's meta-cache (bind.Resolver), the NSMs' result caches and a
// caller's memo of HNS answers (core.RemoteHNS).
//
// The paper's caching scheme is deliberately simple: "Cached data is tagged
// with a time-to-live field for cache invalidation. While this simplistic
// mechanism can cause cache consistency problems, it would not make sense
// to use a more sophisticated scheme because the source of our cached data
// (BIND) also uses this mechanism." This package implements exactly that —
// TTL expiry and no size bound — plus the three rules every layer shares,
// so that none restates them: concurrent misses of one key share one
// fetch (Fill); an Invalidate or Purge, the one way a layer hears of a
// change before the TTL runs out, keeps a fetch already in flight from
// caching its answer; and an expired entry is served in a stale grace
// only when the failure was that the backend could not be reached
// (GetStale). What bounds a cache's memory is its entries' TTLs alone:
// each insert retires up to two entries past their drop time, oldest
// insert first, so nothing ever walks the map.
//
// The cache is storage only; *pricing* an access (demarshalled probe vs
// demarshal-on-every-access, Table 3.2) is the caller's job, because only
// the caller knows what form it stores entries in.
package cache

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// Stats reports cache effectiveness counters.
type Stats struct {
	Hits        int64
	Misses      int64
	Expired     int64 // misses caused by TTL expiry of a present entry
	StaleServed int64 // expired entries handed out by GetStale (degraded mode)
	// LockWaits counts lock acquisitions that found the lock held — a
	// direct contention signal, exposed as cache_lock_wait_total.
	LockWaits int64
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

// Entry is one more answer a Fill's fetch brought back, under a key of
// its own.
type Entry[V any] struct {
	Key   string
	Value V
	TTL   time.Duration
}

// flight is one fetch in progress for a key.
type flight[V any] struct {
	done chan struct{} // closed when the leader finishes

	// superseded, guarded by TTL.mu, is set when an Invalidate or Purge
	// detached this flight: its answer may predate the change and must
	// not be cached.
	superseded bool
	// gen is TTL.gen when the flight began.
	gen uint64

	// Results, valid after done is closed; the leader, every joiner and
	// the cache share the one value.
	value V
	err   error
	cost  time.Duration // simulated cost of the fetch
}

// due is one insert's record in a TTL's expiry queue: the key and the
// expiry it was put with. A record is 40 bytes (a string header and a
// time.Time); the key's bytes are the map key's.
type due struct {
	key     string
	expires time.Time
}

// TTL is a TTL cache: one mutex over one map. The zero value is not
// usable; call New. TTL is safe for concurrent use.
type TTL[V any] struct {
	clock simtime.Clock
	stale time.Duration // grace period expired entries remain servable via GetStale

	mu      sync.Mutex
	entries map[string]entry[V]
	// queue is a ring of one due record per insert, oldest first, from
	// head for n records; put retires entries from its front.
	queue   []due
	head, n int
	stats   Stats
	flights map[string]*flight[V] // the Fills in progress, by key
	// gen counts invalidations (every Invalidate and Purge). A fetch that
	// brought back other keys has no flight of theirs to be superseded
	// through, so its flight compares gen at its end with gen at its start.
	gen uint64
	// coalesced counts Fills that joined a flight in progress
	// (cache_coalesced_total); nil until Instrument.
	coalesced *metrics.Counter

	// lockWaits counts lock acquisitions that found the lock held
	// (TryLock failed), read into Stats.LockWaits.
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
	return &TTL[V]{clock: clock, entries: make(map[string]entry[V]), flights: make(map[string]*flight[V])}
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

// GetStale is the serve-stale rule, the one every layer follows: after a
// fetch for key failed with cause, it returns the entry for key even if
// expired, as long as it is within the stale grace period and cause says
// the backend could not be reached (transport.Code.Unreachable). A
// NotFound, a fault or a refusal the backend answered is never papered
// over. Served expired entries count in Stats.StaleServed; a live entry is
// returned too, uncounted. With no grace configured it returns nothing.
func (c *TTL[V]) GetStale(key string, cause error) (V, bool) {
	var zero V
	if c.stale <= 0 || !transport.CodeOf(cause).Unreachable() {
		return zero, false
	}
	c.lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	now := c.clock.Now()
	if now.Before(e.expires) {
		return e.value, true
	}
	if !now.Before(e.expires.Add(c.stale)) {
		return zero, false
	}
	c.stats.StaleServed++
	return e.value, true
}

// Fill answers key after the caller's own Get missed, so each access is
// counted once. Concurrent Fills of one key share one fetch: the first
// leads, the rest join its flight. fetch returns the value, how long to
// keep it, and any further entries it brought back under other keys. The
// value is cached unless an Invalidate of key or a Purge superseded the
// flight meanwhile; the further entries only if no key at all was
// invalidated meanwhile, since any of them may have been. A failed fetch
// caches nothing, and the caller is answered from the stale grace when
// GetStale allows it, with stale set. A joiner whose ctx dies while
// waiting leaves with ctx.Err(); the flight runs on for the others.
//
// The subtlety is simulated cost. The paper's tables price what one client
// *experiences*: a cache-cold FindNSM costs the full lookup whether or not
// some other client happens to be fetching the same record at the same
// instant. So a metered leader runs fetch against a private meter, and
// every caller (leader and joiners alike) is charged the captured cost on
// its own meter. Coalescing therefore changes backend load — N concurrent
// misses cost the backend one fetch — without perturbing a single Table
// 3.1/3.2 cell. A daemon's ctx has no meter and acquires none here (the
// RPC under fetch reads wall time), so its callers are charged nothing.
func (c *TTL[V]) Fill(ctx context.Context, key string, fetch func(context.Context) (V, time.Duration, []Entry[V], error)) (V, bool, error) {
	c.lock()
	f, ok := c.flights[key]
	if ok {
		coalesced := c.coalesced
		c.mu.Unlock()
		coalesced.Inc()
		select {
		case <-f.done:
		case <-ctx.Done():
			return c.orStale(key, ctx.Err())
		}
	} else {
		f = &flight[V]{done: make(chan struct{}), gen: c.gen}
		c.flights[key] = f
		c.mu.Unlock()
		c.lead(ctx, key, f, fetch)
	}
	simtime.Charge(ctx, f.cost)
	if f.err != nil {
		return c.orStale(key, f.err)
	}
	return f.value, false, nil
}

// lead runs f's fetch and installs what it brought back as Fill says.
func (c *TTL[V]) lead(ctx context.Context, key string, f *flight[V], fetch func(context.Context) (V, time.Duration, []Entry[V], error)) {
	var ttl time.Duration
	var more []Entry[V]
	if simtime.From(ctx) != nil {
		meter := simtime.NewMeter()
		f.value, ttl, more, f.err = fetch(simtime.WithMeter(ctx, meter))
		f.cost = meter.Elapsed()
	} else {
		f.value, ttl, more, f.err = fetch(ctx)
	}
	c.lock()
	if !f.superseded {
		delete(c.flights, key)
		if f.err == nil {
			c.put(key, f.value, ttl)
			if f.gen == c.gen {
				for _, e := range more {
					c.put(e.Key, e.Value, e.TTL)
				}
			}
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// orStale ends a failed Fill: the stale answer if GetStale has one, else
// the failure.
func (c *TTL[V]) orStale(key string, cause error) (V, bool, error) {
	if v, ok := c.GetStale(key, cause); ok {
		return v, true, nil
	}
	var zero V
	return zero, false, cause
}

// Put installs value under key with the given TTL. Non-positive TTLs are
// not cached (matching BIND: a zero TTL means "do not cache").
func (c *TTL[V]) Put(key string, value V, ttl time.Duration) {
	c.lock()
	defer c.mu.Unlock()
	c.put(key, value, ttl)
}

// put is Put under c.mu. It first retires up to two records past their
// drop time (expires plus the stale grace) from the front of the queue,
// deleting a record's entry only if the entry still carries the record's
// expiry: a later put or an Invalidate has made the record stale
// otherwise. Each put adds at most one record, so a backlog of due
// records drains, and its work is bounded whatever the cache's size.
func (c *TTL[V]) put(key string, value V, ttl time.Duration) {
	now := c.clock.Now()
	for i := 0; i < 2 && c.n > 0; i++ {
		d := &c.queue[c.head]
		if now.Before(d.expires.Add(c.stale)) {
			break
		}
		if e, ok := c.entries[d.key]; ok && e.expires.Equal(d.expires) {
			delete(c.entries, d.key)
		}
		*d = due{}
		c.head, c.n = (c.head+1)%len(c.queue), c.n-1
	}
	if ttl <= 0 {
		return
	}
	e := entry[V]{value: value, expires: now.Add(ttl)}
	c.entries[key] = e
	if c.n == len(c.queue) {
		grown := make([]due, max(2*c.n, 16))
		copy(grown, c.queue[c.head:])
		copy(grown[len(c.queue)-c.head:], c.queue[:c.head])
		c.queue, c.head = grown, 0
	}
	c.queue[(c.head+c.n)%len(c.queue)] = due{key, e.expires}
	c.n++
}

// Left reports how much longer key's entry stays live: nothing when it
// is absent or expired.
func (c *TTL[V]) Left(key string) time.Duration {
	c.lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return 0
	}
	return max(e.expires.Sub(c.clock.Now()), 0)
}

// Invalidate removes key, reporting whether it held a live entry, and
// supersedes a Fill in flight for it: that flight's callers still get its
// answer, it is not cached, and the next Fill of key starts a new flight.
func (c *TTL[V]) Invalidate(key string) bool {
	c.lock()
	defer c.mu.Unlock()
	c.gen++
	if f, ok := c.flights[key]; ok {
		f.superseded = true
		delete(c.flights, key)
	}
	e, ok := c.entries[key]
	delete(c.entries, key)
	return ok && c.clock.Now().Before(e.expires)
}

// Purge empties the cache (stats are kept), superseding every Fill in
// flight as Invalidate does one.
func (c *TTL[V]) Purge() {
	c.lock()
	defer c.mu.Unlock()
	c.gen++
	for _, f := range c.flights {
		f.superseded = true
	}
	clear(c.flights)
	c.entries = make(map[string]entry[V])
	c.queue, c.head, c.n = nil, 0, 0
}

// Len reports the number of entries, including expired ones no Get or
// put has retired yet.
func (c *TTL[V]) Len() int {
	c.lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *TTL[V]) Stats() Stats {
	c.lock()
	defer c.mu.Unlock()
	s := c.stats
	s.LockWaits = c.lockWaits.Load()
	return s
}

// Instrument exposes the cache's counters on r, labeled cache=<name>: the
// gauge series cache_hits_total, cache_misses_total, cache_expired_total,
// cache_stale_served_total, cache_entries and cache_lock_wait_total, which
// read Stats at snapshot time and so add no work to the access path, and
// the counter cache_coalesced_total, the Fills that joined a flight.
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
	series("cache_lock_wait_total", func(s Stats) int64 { return s.LockWaits })
	r.GaugeFunc(metrics.Labels("cache_entries", "cache", name), func() int64 {
		return int64(c.Len())
	})
	coalesced := r.Counter(metrics.Labels("cache_coalesced_total", "cache", name))
	c.lock()
	c.coalesced = coalesced
	c.mu.Unlock()
}
