package hrpc

// Per-endpoint connection.
//
// Connections are multiplexed (internal/transport mux.go) — one carries
// many concurrent streams — so the client keeps exactly one per
// endpoint, dialed on first use and kept until it breaks or the client
// closes. Every calibrated simulated cost (one dial per endpoint per
// client, ever) rests on that discipline.

import (
	"context"

	"hns/internal/metrics"
	"hns/internal/transport"
)

// endpoint is the client's one connection to an address, plus the
// gauges that make it observable.
type endpoint struct {
	size     *metrics.Gauge // conn_pool_size{addr}: 0 or 1
	inflight *metrics.Gauge // conn_inflight{addr}

	// conn is guarded by Client.mu; nil until dialed and after a discard.
	// Dials and calls happen outside the lock.
	conn transport.Conn
}

// endpointFor returns (creating if needed) the endpoint for key. Caller
// must hold c.mu.
func (c *Client) endpointFor(key, addr string) *endpoint {
	ep, ok := c.endpoints[key]
	if !ok {
		reg := c.registry()
		ep = &endpoint{
			size:     reg.Gauge(metrics.Labels("conn_pool_size", "addr", addr)),
			inflight: reg.Gauge(metrics.Labels("conn_inflight", "addr", addr)),
		}
		c.endpoints[key] = ep
	}
	return ep
}

// acquire returns addr's connection holding one in-flight reservation,
// dialing it on first use. The last result reports whether the
// connection predates this acquire, which gates the one-redial recovery
// in sendOnce.
func (c *Client) acquire(ctx context.Context, tr transport.Transport, addr, key string) (*endpoint, transport.Conn, bool, error) {
	c.mu.Lock()
	ep := c.endpointFor(key, addr)
	if conn := ep.conn; conn != nil {
		ep.inflight.Add(1)
		c.mu.Unlock()
		return ep, conn, true, nil
	}
	c.mu.Unlock()

	conn, err := tr.Dial(ctx, addr)
	if err != nil {
		return nil, nil, false, err
	}
	c.mu.Lock()
	ep.inflight.Add(1)
	if won := ep.conn; won != nil {
		// Lost a dial race: ride the winner's connection and drop ours.
		c.mu.Unlock()
		_ = conn.Close()
		return ep, won, true, nil
	}
	ep.conn = conn
	ep.size.Set(1)
	c.mu.Unlock()
	return ep, conn, false, nil
}

// release returns an acquire's reservation after a successful (or
// conn-preserving) call.
func (ep *endpoint) release() { ep.inflight.Add(-1) }

// discard returns the reservation and drops a failed connection: the
// first caller to notice the failure clears and closes it, later ones
// only release, and the next call redials.
func (c *Client) discard(ep *endpoint, conn transport.Conn) {
	ep.release()
	c.mu.Lock()
	mine := ep.conn == conn
	if mine {
		ep.conn = nil
		ep.size.Set(0)
	}
	c.mu.Unlock()
	if mine {
		_ = conn.Close()
	}
}
