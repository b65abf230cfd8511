package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hns/internal/simtime"
)

// simEndpoint is one registered in-process server.
type simEndpoint struct {
	handler Handler
	closed  chan struct{}
}

// simTransport delivers calls by direct function invocation while charging
// the round trip of the transport it models. Endpoints are scoped by
// transport name, so "udp" and "tcp" listeners can share an address string
// without colliding — exactly like distinct protocol port spaces.
type simTransport struct {
	net   *Network
	name  string
	rtt   time.Duration // charged per call
	setup time.Duration // charged per dial
	obs   wireObs
}

func newSimTransport(n *Network, name string, rtt, setup time.Duration) *simTransport {
	return &simTransport{net: n, name: name, rtt: rtt, setup: setup, obs: newWireObs(name)}
}

// Name implements Transport.
func (t *simTransport) Name() string { return t.name }

func (t *simTransport) key(addr string) string { return t.name + "!" + addr }

// Listen implements Transport.
func (t *simTransport) Listen(addr string, h Handler) (Listener, error) {
	if addr == "" {
		return nil, fmt.Errorf("transport %s: empty listen address", t.name)
	}
	ep := &simEndpoint{handler: h, closed: make(chan struct{})}
	t.net.mu.Lock()
	defer t.net.mu.Unlock()
	key := t.key(addr)
	if _, dup := t.net.endpoints[key]; dup {
		return nil, fmt.Errorf("transport %s: address %s already in use", t.name, addr)
	}
	t.net.endpoints[key] = ep
	return &simListener{t: t, addr: addr, ep: ep}, nil
}

// Dial implements Transport. Simulated dials are cheap name checks; the
// connection-setup cost (for stream transports) is charged here.
func (t *simTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	t.net.mu.RLock()
	ep, ok := t.net.endpoints[t.key(addr)]
	t.net.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s %s", ErrRefused, t.name, addr)
	}
	simtime.Charge(ctx, t.setup)
	return &simConn{
		t: t, addr: addr, ep: ep,
		peer: fmt.Sprintf("sim!%d", simPeerSeq.Add(1)),
		id:   muxConnIDs.Add(1),
		done: make(chan struct{}),
	}, nil
}

type simListener struct {
	t    *simTransport
	addr string
	ep   *simEndpoint
	once sync.Once
}

// Addr implements Listener.
func (l *simListener) Addr() string { return l.addr }

// Close implements Listener.
func (l *simListener) Close() error {
	l.once.Do(func() {
		close(l.ep.closed)
		l.t.net.mu.Lock()
		defer l.t.net.mu.Unlock()
		// Only remove if we still own the slot (a new listener may have
		// replaced us after an earlier Close).
		if l.t.net.endpoints[l.t.key(l.addr)] == l.ep {
			delete(l.t.net.endpoints, l.t.key(l.addr))
		}
	})
	return nil
}

type simConn struct {
	t    *simTransport
	addr string
	ep   *simEndpoint
	peer string // synthetic caller identity handed to the handler
	id   uint64 // process-unique identity, mirroring muxCore
	done chan struct{}

	mu     sync.Mutex
	closed bool
	onPush func(body []byte, err error)
}

// SetPushHandler implements PushReceiver.
func (c *simConn) SetPushHandler(fn func(body []byte, err error)) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		if fn != nil {
			fn(nil, &ConnBrokenError{ConnID: c.id, Cause: ErrClosed})
		}
		return
	}
	c.onPush = fn
	c.mu.Unlock()
}

// Push implements Pusher: a simConn is both ends of the in-process
// "wire", so the server's push channel to the dialing client is the
// connection itself, one per connection as on a stream listener. It
// delivers to the client's push handler synchronously, deterministic for
// the seeded harness.
func (c *simConn) Push(body []byte) error {
	select {
	case <-c.ep.closed:
		return ErrClosed
	default:
	}
	c.mu.Lock()
	closed, fn := c.closed, c.onPush
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	c.t.obs.tx(len(body))
	if fn == nil {
		return nil // no handler: dropped, like an unclaimed tag
	}
	fn(append(make([]byte, 0, len(body)), body...), nil)
	return nil
}

// Done implements Pusher.
func (c *simConn) Done() <-chan struct{} { return c.done }

// Call implements Conn. The server handler runs on the caller's goroutine —
// delivery is synchronous, like a blocked RPC — with a fresh meter whose
// total is charged back to the caller, as the server's processing time
// would reach a blocked caller's stopwatch. Concurrent calls overlap, as
// on the socket transports.
func (c *simConn) Call(ctx context.Context, req []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()

	select {
	case <-c.ep.closed:
		return nil, fmt.Errorf("%w: %s %s", ErrRefused, c.t.name, c.addr)
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	simtime.Charge(ctx, c.t.rtt)
	c.t.obs.tx(len(req))

	serverMeter := simtime.NewMeter()
	hctx := WithPusher(WithPeer(simtime.WithMeter(context.Background(), serverMeter), c.peer), c)
	resp, err := c.ep.handler(hctx, req)
	simtime.Charge(ctx, serverMeter.Elapsed())
	if err != nil {
		return nil, &RemoteError{Msg: err.Error()}
	}
	c.t.obs.rx(len(resp))
	return resp, nil
}

// Close implements Conn.
func (c *simConn) Close() error {
	c.mu.Lock()
	wasClosed := c.closed
	c.closed = true
	fn := c.onPush
	c.onPush = nil // one death notice, ever
	c.mu.Unlock()
	if !wasClosed {
		close(c.done)
		if fn != nil {
			fn(nil, &ConnBrokenError{ConnID: c.id, Cause: ErrClosed})
		}
	}
	return nil
}
