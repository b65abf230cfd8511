package hrpc

// Per-endpoint connection pool.
//
// Connections are multiplexed (internal/transport mux.go) — one carries
// many concurrent streams — so the client keeps a small pool per
// endpoint: up to MaxConns connections, each carrying up to MaxStreams
// in-flight calls, with idle connections closed after IdleTimeout (or
// explicitly via Client.CloseIdle).
//
// The zero-value PoolConfig is one connection per endpoint, kept until
// Close, so every calibrated simulated cost (one dial per endpoint per
// client, ever) holds unless a caller opts into a bigger pool.

import (
	"context"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// PoolConfig bounds the client's per-endpoint connection pool. Set
// before first use.
type PoolConfig struct {
	// MaxConns caps how many connections may be open to one endpoint.
	// With multiplexed transports one connection usually suffices;
	// additional ones help once MaxStreams bounds the calls a single
	// connection may carry. Non-positive means 1.
	MaxConns int

	// MaxStreams caps concurrent in-flight calls per connection. When
	// every open connection is at the cap, a new one is dialed if
	// MaxConns allows; otherwise the least-loaded connection carries the
	// overflow (the cap is a growth signal, not an admission limit, so
	// calls never queue in the pool). Non-positive means unbounded.
	MaxStreams int

	// IdleTimeout retires connections that have carried no call for this
	// long. Expiry is checked lazily on the next acquire against the
	// same endpoint and eagerly by Client.CloseIdle. Non-positive means
	// idle connections are kept until Close.
	IdleTimeout time.Duration

	// Clock supplies the idle-accounting time base. Nil means real time.
	Clock simtime.Clock
}

// connPool is the per-endpoint state: a small set of open connections
// plus the gauges that make its size and load observable.
type connPool struct {
	addr     string
	size     *metrics.Gauge // conn_pool_size{addr}
	inflight *metrics.Gauge // conn_inflight{addr}

	// conns is guarded by Client.mu (the pool map's own lock): pool
	// operations are brief bookkeeping — dials and calls happen outside
	// the lock.
	conns []*pooledConn
}

// pooledConn is one pool entry. inflight counts calls between acquire
// and release/discard; idleSince is meaningful only while inflight is 0.
type pooledConn struct {
	pool      *connPool
	conn      transport.Conn
	inflight  int
	idleSince time.Time
	gone      bool // removed from the pool (discarded or evicted)
}

// clock resolves the pool's time base.
func (c *Client) clock() simtime.Clock {
	if c.Pool.Clock != nil {
		return c.Pool.Clock
	}
	return simtime.RealClock{}
}

// poolFor returns (creating if needed) the pool for key. Caller must
// hold c.mu.
func (c *Client) poolFor(key, addr string) *connPool {
	if c.pools == nil {
		c.pools = make(map[string]*connPool)
	}
	p, ok := c.pools[key]
	if !ok {
		reg := c.registry()
		p = &connPool{
			addr:     addr,
			size:     reg.Gauge(metrics.Labels("conn_pool_size", "addr", addr)),
			inflight: reg.Gauge(metrics.Labels("conn_inflight", "addr", addr)),
		}
		c.pools[key] = p
	}
	return p
}

// evictIdleLocked removes (and returns, for closing outside the lock)
// every connection that has sat idle past the deadline. Caller holds
// c.mu.
func (p *connPool) evictIdleLocked(now time.Time, idle time.Duration) []*pooledConn {
	if idle <= 0 {
		return nil
	}
	var expired []*pooledConn
	kept := p.conns[:0]
	for _, e := range p.conns {
		if e.inflight == 0 && now.Sub(e.idleSince) >= idle {
			e.gone = true
			expired = append(expired, e)
			continue
		}
		kept = append(kept, e)
	}
	p.conns = kept
	p.size.Set(int64(len(p.conns)))
	return expired
}

// leastLoadedLocked returns the connection with the fewest in-flight
// calls, optionally skipping those at the stream cap. Caller holds c.mu.
func (p *connPool) leastLoadedLocked(maxStreams int) *pooledConn {
	var best *pooledConn
	for _, e := range p.conns {
		if maxStreams > 0 && e.inflight >= maxStreams {
			continue
		}
		if best == nil || e.inflight < best.inflight {
			best = e
		}
	}
	return best
}

// acquire returns a connection to addr holding one in-flight
// reservation, reusing a pooled connection when one is available and
// dialing otherwise. The second result reports whether the connection
// predates this acquire (the legacy "came from the cache" signal that
// gates the one-redial recovery in sendOnce).
func (c *Client) acquire(ctx context.Context, tr transport.Transport, addr, key string) (*pooledConn, bool, error) {
	maxConns := c.Pool.MaxConns
	if maxConns <= 0 {
		maxConns = 1
	}
	now := c.clock().Now()

	c.mu.Lock()
	pool := c.poolFor(key, addr)
	expired := pool.evictIdleLocked(now, c.Pool.IdleTimeout)
	if e := pool.leastLoadedLocked(c.Pool.MaxStreams); e != nil {
		e.inflight++
		pool.inflight.Add(1)
		c.mu.Unlock()
		closeAll(expired)
		return e, true, nil
	}
	full := len(pool.conns) >= maxConns
	var overflow *pooledConn
	if full {
		// Every connection is at the stream cap and the pool is at its
		// size cap: ride the least-loaded one rather than queueing.
		overflow = pool.leastLoadedLocked(0)
	}
	if overflow != nil {
		overflow.inflight++
		pool.inflight.Add(1)
		c.mu.Unlock()
		closeAll(expired)
		return overflow, true, nil
	}
	c.mu.Unlock()
	closeAll(expired)

	conn, err := tr.Dial(ctx, addr)
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	// CloseIdle may have dropped the then-empty entry while we dialed:
	// re-resolve it, or the connection would join a pool that Close and
	// CloseIdle no longer see.
	pool = c.poolFor(key, addr)
	e := &pooledConn{pool: pool, conn: conn, inflight: 1}
	if len(pool.conns) >= maxConns {
		// Lost a dial race; ride an existing connection and drop ours.
		if prev := pool.leastLoadedLocked(0); prev != nil {
			prev.inflight++
			pool.inflight.Add(1)
			c.mu.Unlock()
			_ = conn.Close()
			return prev, true, nil
		}
	}
	pool.conns = append(pool.conns, e)
	pool.size.Set(int64(len(pool.conns)))
	pool.inflight.Add(1)
	c.mu.Unlock()
	return e, false, nil
}

// release returns an acquire's reservation after a successful (or
// conn-preserving) call.
func (c *Client) release(e *pooledConn) {
	c.mu.Lock()
	e.inflight--
	e.idleSince = c.clock().Now()
	e.pool.inflight.Add(-1)
	c.mu.Unlock()
}

// discard drops a failed connection: the reservation is returned and the
// connection is removed from the pool (idempotently — the first caller
// to notice the failure removes it, later ones only release) and closed.
func (c *Client) discard(e *pooledConn) {
	c.mu.Lock()
	e.inflight--
	e.pool.inflight.Add(-1)
	remove := false
	if !e.gone {
		p := e.pool
		for i, x := range p.conns {
			if x == e {
				p.conns = append(p.conns[:i], p.conns[i+1:]...)
				p.size.Set(int64(len(p.conns)))
				e.gone = true
				remove = true
				break
			}
		}
	}
	c.mu.Unlock()
	if remove {
		_ = e.conn.Close()
	}
}

// CloseIdle closes every pooled connection with no call in flight —
// those idle at least Pool.IdleTimeout when it is set, every idle one
// when it is not — and drops endpoint entries whose pools empty out, so
// the per-endpoint map no longer grows without bound across many
// distinct addresses. It reports how many connections it closed.
func (c *Client) CloseIdle() int {
	now := c.clock().Now()
	idle := c.Pool.IdleTimeout

	var victims []*pooledConn
	c.mu.Lock()
	for key, p := range c.pools {
		kept := p.conns[:0]
		for _, e := range p.conns {
			if e.inflight == 0 && (idle <= 0 || now.Sub(e.idleSince) >= idle) {
				e.gone = true
				victims = append(victims, e)
				continue
			}
			kept = append(kept, e)
		}
		p.conns = kept
		p.size.Set(int64(len(p.conns)))
		if len(p.conns) == 0 {
			delete(c.pools, key)
		}
	}
	c.mu.Unlock()
	closeAll(victims)
	return len(victims)
}

func closeAll(entries []*pooledConn) {
	for _, e := range entries {
		_ = e.conn.Close()
	}
}
