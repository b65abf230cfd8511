package hrpc

// Per-endpoint connection.
//
// Connections are multiplexed (internal/transport mux.go) — one carries
// many concurrent streams — so the client keeps exactly one per
// endpoint, dialed on first use (by one caller; the others wait for it)
// and kept until it breaks or the client closes. Every calibrated
// simulated cost (one dial per endpoint per client, ever) rests on that
// discipline. Push rides the same connection (Listen), so one connection
// death reaches calls and subscriptions alike.

import (
	"context"
	"slices"
	"sync"

	"hns/internal/metrics"
	"hns/internal/transport"
)

// endpoint is the client's one connection to an address, plus the
// gauges that make it observable.
type endpoint struct {
	size     *metrics.Gauge // conn_pool_size{addr}: 0 or 1
	inflight *metrics.Gauge // conn_inflight{addr}

	// conn and dialing are guarded by Client.mu. conn is nil until
	// dialed and after a discard; dialing, while a dial is out, closes
	// when it lands. Dials and calls happen outside the lock.
	conn    *link
	dialing chan struct{}
}

// link is one dialed connection. When it can receive pushes, the
// client's handler on it hands each server-initiated frame to the
// listeners registered there, and its death to each of them once.
type link struct {
	transport.Conn
	pushes bool

	mu   sync.Mutex
	ls   []*listener // copy on write, so handle reads it unlocked
	dead error       // the death handed out; no listener registers after it
}

// listener is one Listen registration.
type listener struct {
	fn func(body []byte, err error)
	ln *link // where it is registered
}

// stop withdraws the registration; a frame already being handed out may
// still arrive.
func (l *listener) stop() {
	l.ln.mu.Lock()
	defer l.ln.mu.Unlock()
	l.ln.ls = slices.DeleteFunc(slices.Clone(l.ln.ls), func(x *listener) bool { return x == l })
}

func (ln *link) handle(body []byte, err error) {
	ln.mu.Lock()
	ls := ln.ls
	if err != nil {
		ln.ls, ln.dead = nil, err
	}
	ln.mu.Unlock()
	for _, l := range ls {
		l.fn(body, err)
	}
}

// call makes one exchange on ln, with l, when set, registered there first
// (unless ln has died) and withdrawn again if the exchange fails.
func (ln *link) call(ctx context.Context, frame []byte, l *listener) ([]byte, error) {
	if l != nil {
		ln.mu.Lock()
		dead := ln.dead
		if dead == nil {
			ln.ls, l.ln = append(slices.Clip(ln.ls), l), ln
		}
		ln.mu.Unlock()
		if dead != nil {
			return nil, dead
		}
	}
	resp, err := ln.Call(ctx, frame)
	if err != nil && l != nil {
		l.stop()
	}
	return resp, err
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
// dialing it on first use; callers that arrive while a dial is out wait
// for it rather than dial their own. The last result reports whether the
// connection was not dialed by this acquire, which gates the one-redial
// recovery in sendOnce.
func (c *Client) acquire(ctx context.Context, tr transport.Transport, addr, key string) (*endpoint, *link, bool, error) {
	c.mu.Lock()
	ep := c.endpointFor(key, addr)
	for ep.dialing != nil {
		landed := ep.dialing
		c.mu.Unlock()
		select {
		case <-landed:
		case <-ctx.Done():
			return nil, nil, false, ctx.Err()
		}
		c.mu.Lock()
	}
	if ln := ep.conn; ln != nil {
		ep.inflight.Add(1)
		c.mu.Unlock()
		return ep, ln, true, nil
	}
	landed := make(chan struct{})
	ep.dialing = landed
	c.mu.Unlock()

	conn, err := tr.Dial(ctx, addr)
	ln := &link{Conn: conn}
	if pr, ok := conn.(transport.PushReceiver); ok {
		ln.pushes = true
		pr.SetPushHandler(ln.handle)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ep.dialing = nil
	close(landed)
	if err != nil {
		return nil, nil, false, err
	}
	ep.conn = ln
	ep.size.Set(1)
	ep.inflight.Add(1)
	return ep, ln, false, nil
}

// release returns an acquire's reservation after a successful (or
// conn-preserving) call.
func (ep *endpoint) release() { ep.inflight.Add(-1) }

// discard returns the reservation and drops a failed connection: the
// first caller to notice the failure clears and closes it, later ones
// only release, and the next call redials.
func (c *Client) discard(ep *endpoint, ln *link) {
	ep.release()
	c.mu.Lock()
	mine := ep.conn == ln
	if mine {
		ep.conn = nil
		ep.size.Set(0)
	}
	c.mu.Unlock()
	if mine {
		_ = ln.Close()
	}
}
