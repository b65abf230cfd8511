package hrpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/bufpool"
	"hns/internal/health"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// Client places HRPC calls. It resolves a Binding's component names to
// implementations at call time — the "mix and match at bind time" property
// — and keeps one multiplexed transport connection per endpoint (see
// pool.go). A Client is safe for concurrent use.
type Client struct {
	net *transport.Network
	xid atomic.Uint32

	// FreshConn, when set, makes every call dial (and close) its own
	// connection instead of using the cache, one exchange per connection
	// as the era's Raw suite did. The paper path's meta-BIND interface and
	// the bench ladder's fresh-dial rung pay that per-call setup cost;
	// Listen ignores it. Set before first use.
	FreshConn bool

	// Metrics receives the client's hrpc_client_* series. Nil means the
	// process-wide metrics.Default(); metrics.Discard disables them.
	// Set before first use.
	Metrics *metrics.Registry

	// Policy bounds the retransmission discipline per call. The zero
	// value allows no retransmission wait: a timeout-class loss fails
	// the call at once. Set before first use.
	Policy RetryPolicy

	// Health parameterizes the per-endpoint circuit breakers. The zero
	// value uses the package defaults with real time. Set before first
	// use.
	Health health.Config

	mu        sync.Mutex
	endpoints map[string]*endpoint
	closed    bool // set by Close: Listen fails afterwards

	// brokenSeen records, per endpoint, the newest broken-connection ID
	// already charged to its breaker: a multiplexed connection dying with
	// many calls in flight fails them all with one ConnBrokenError, and
	// the breaker must see one endpoint failure, not one per caller.
	brokenMu   sync.Mutex
	brokenSeen map[string]uint64

	repMu    sync.RWMutex
	replicas map[string][]string // primary addr → ordered replica set

	healthOnce sync.Once
	healthSet  *health.Set
}

// RetryPolicy bounds how long one call may spend detecting and retrying
// transport-level losses. Under the paper harness the waits are
// simulated: charged to the caller's meter, never slept. Over real
// sockets a lost attempt's wait is the real time the transport took to
// give up on it, and the same durations bound how many such waits one
// call may sit through.
//
// The schedule is fixed: the first wait is simtime.RetransmitTimeout,
// each later one doubles up to 4 × that, with no jitter, so calibrated
// costs stay reproducible.
type RetryPolicy struct {
	// Budget caps the total retransmission wait one call may charge.
	// When the next backoff would exceed what remains, the call charges
	// the remainder and fails with ErrCallTimeout — a blackout costs
	// exactly Budget, never more. Non-positive means no retransmission
	// wait: the first timeout-class loss fails the call.
	Budget time.Duration
}

// SetReplicas installs an ordered replica set for calls bound to
// primary: the primary is tried first, then each replica in order as
// breakers take endpoints out of rotation. The Binding itself is
// untouched (it stays a comparable value and its wire form is
// unchanged); replica routing is client configuration.
func (c *Client) SetReplicas(primary string, replicas ...string) {
	set := append([]string{primary}, replicas...)
	c.repMu.Lock()
	defer c.repMu.Unlock()
	if c.replicas == nil {
		c.replicas = make(map[string][]string)
	}
	c.replicas[primary] = set
}

// replicasFor resolves the replica set for addr; a single-element set
// (just addr) when none was configured.
func (c *Client) replicasFor(addr string) []string {
	c.repMu.RLock()
	set := c.replicas[addr]
	c.repMu.RUnlock()
	if set == nil {
		return []string{addr}
	}
	return set
}

// breakers returns the client's breaker set, building it on first use
// from c.Health.
func (c *Client) breakers() *health.Set {
	c.healthOnce.Do(func() {
		cfg := c.Health
		if cfg.Metrics == nil {
			cfg.Metrics = c.registry()
		}
		if cfg.Service == "" {
			cfg.Service = "hrpc"
		}
		c.healthSet = health.NewSet(cfg)
	})
	return c.healthSet
}

// registry resolves the effective metrics registry.
func (c *Client) registry() *metrics.Registry {
	if c.Metrics != nil {
		return c.Metrics
	}
	return metrics.Default()
}

// NewClient creates a client on the given network.
func NewClient(net *transport.Network) *Client {
	return &Client{net: net, endpoints: make(map[string]*endpoint)}
}

// RemoteFault is an application-level error returned by the remote
// procedure, as distinguished from a transport or protocol failure.
type RemoteFault struct {
	Proc string
	Msg  string
}

// Error implements error.
func (e *RemoteFault) Error() string { return fmt.Sprintf("hrpc: %s: %s", e.Proc, e.Msg) }

// Code reports the failure's code (see transport.CodeOf).
func (e *RemoteFault) Code() transport.Code { return transport.CodeRemoteFault }

// sentinel is a comparable error value carrying its code.
type sentinel struct {
	msg  string
	code transport.Code
}

func (e *sentinel) Error() string        { return e.msg }
func (e *sentinel) Code() transport.Code { return e.code }

// errNoPush fails a Listen whose connection cannot carry pushes.
var errNoPush error = &sentinel{"connection cannot receive pushes", transport.CodeNoPush}

// Call invokes procedure p on the server identified by b, marshalling args
// and unmarshalling the result according to the binding's components. All
// simulated costs on the call path are charged to the meter in ctx. A
// budget in ctx (WithBudget, else its deadline) travels with every
// attempt on the raw suite; see deadline.go.
func (c *Client) Call(ctx context.Context, b Binding, p Procedure, args marshal.Value) (marshal.Value, error) {
	return c.call(ctx, b, p, args, nil)
}

// Listen places a call like Call, but over the endpoint's one cached
// connection even on a FreshConn client, and keeps fn registered on the
// connection that answered: fn hears each frame the server pushes there
// (from before Listen returns), then once (nil, err) when it dies. fn
// runs on the connection's reader and must not block. The Registration
// ends delivery and names that connection. A connection that cannot carry
// pushes fails the call with errors.ErrUnsupported; a closed client with
// transport.ErrClosed itself.
func (c *Client) Listen(ctx context.Context, b Binding, p Procedure, args marshal.Value, fn func(body []byte, err error)) (ret marshal.Value, reg Registration, err error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return marshal.Value{}, Registration{}, transport.ErrClosed
	}
	l := &listener{fn: fn}
	ret, err = c.call(ctx, b, p, args, l)
	if err == nil && !l.ln.pushes {
		err = fmt.Errorf("hrpc: %s to %s: %w: %w", p.Name, b.Addr, errNoPush, errors.ErrUnsupported)
	}
	if err != nil {
		if l.ln != nil {
			l.stop() // the exchange went through, but to no avail
		}
		return marshal.Value{}, Registration{}, err
	}
	return ret, Registration{l}, nil
}

// A Registration is one Listen's hold on the connection that answered it.
type Registration struct{ l *listener }

// Stop ends delivery but leaves the connection, and what the call
// registered at the server, in place.
func (r Registration) Stop() { r.l.stop() }

// Shares reports whether r and o hold one connection: o's reply then
// trailed every frame the server pushed there before answering it.
func (r Registration) Shares(o Registration) bool { return r.l.ln == o.l.ln }

// OneConn reports whether every call bound to addr rides the connection a
// Listen to addr holds: the client neither dials per call (FreshConn) nor
// fails over to a replica (SetReplicas).
func (c *Client) OneConn(addr string) bool {
	return !c.FreshConn && len(c.replicasFor(addr)) == 1
}

// call is Call with l, when set, registered where the call is answered.
func (c *Client) call(ctx context.Context, b Binding, p Procedure, args marshal.Value, l *listener) (_ marshal.Value, err error) {
	reg := c.registry()
	if reg.Enabled() {
		reg.Counter(metrics.Labels("hrpc_client_calls_total", "proc", p.Name)).Inc()
		sw := simtime.Start(ctx)
		defer func() {
			reg.Histogram(metrics.Labels("hrpc_client_call_ms", "addr", b.Addr)).
				Observe(sw.Elapsed())
			if err != nil {
				reg.Counter(metrics.Labels("hrpc_client_errors_total",
					"code", transport.CodeOf(err).String())).Inc()
			}
		}()
	}
	if err := b.Validate(); err != nil {
		return marshal.Value{}, err
	}
	tr, err := c.net.Transport(b.Transport)
	if err != nil {
		return marshal.Value{}, err
	}
	rep, err := marshal.Lookup(b.DataRep)
	if err != nil {
		return marshal.Value{}, err
	}
	ctl, err := LookupControl(b.Control)
	if err != nil {
		return marshal.Value{}, err
	}

	// Both the marshalled arguments and the call frame build in pooled
	// buffers, recycled once the reply is fully decoded (a handler on the
	// in-process transport may return bytes aliasing its request).
	simtime.Charge(ctx, ctl.Overhead())
	argBytes, err := rep.Append(bufpool.Get(64), args, p.Args)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: marshal args: %w", p.Name, err)
	}
	defer bufpool.Put(argBytes)
	marshal.ChargeValue(ctx, p.Style, paper(p.PaperArgs, p.Args), args)
	h := CallHeader{XID: c.xid.Add(1), Program: b.Program, Version: b.Version, Procedure: p.ID}
	frame, err := ctl.AppendCall(bufpool.Get(48+len(argBytes)), h, argBytes)
	if err != nil {
		return marshal.Value{}, err
	}
	defer bufpool.Put(frame)

	bs := newBudgetState(ctx)
	if bs.active {
		bs.encode = func(budget time.Duration) ([]byte, error) {
			h.Budget, h.HasBudget = budget, true
			return ctl.AppendCall(make([]byte, 0, 48+len(argBytes)), h, argBytes)
		}
	}
	respFrame, ep, err := c.roundTrip(ctx, tr, b.Addr, frame, bs, l)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s to %s: %w", p.Name, b.Addr, err)
	}
	rh, resBytes, err := ctl.DecodeReply(respFrame)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: %w", p.Name, err)
	}
	switch rh.Code {
	case ReplyOK:
	case ReplyOverloaded:
		// An Overloaded reply is backpressure, not failure: record the
		// server's retry-after on the endpoint's breaker (the shared
		// breaker table IS the per-endpoint backoff state) so the next
		// call routes around the shedding endpoint without tripping it.
		c.breakers().Breaker(ep).Backpressure(rh.RetryAfter)
		reg.Counter(metrics.Labels("hrpc_client_backpressure_total", "addr", ep)).Inc()
		return marshal.Value{}, &BackpressureError{Endpoint: ep, Reason: rh.Err, RetryAfter: rh.RetryAfter}
	case ReplyExpired:
		return marshal.Value{}, &BudgetExpiredError{Endpoint: ep, Proc: p.Name}
	default:
		return marshal.Value{}, &RemoteFault{Proc: p.Name, Msg: rh.Err}
	}
	ret, err := marshal.Unmarshal(rep, resBytes, p.Ret)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: unmarshal result: %w", p.Name, err)
	}
	marshal.ChargeValue(ctx, p.Style, paper(p.PaperRet, p.Ret), ret)
	return ret, nil
}

// ErrCallTimeout is matched (errors.Is) by the error roundTrip returns
// when a call exhausts its retry budget or no replica's breaker admits
// it — "backend unreachable", as distinguished from marshalling errors
// and remote faults. The concrete error is a *CallTimeout.
var ErrCallTimeout error = &sentinel{"hrpc: call timed out", transport.CodeExhausted}

// CallTimeout is the exhausted-retry error: every admitted endpoint
// failed (or none was admitted) within the call's budget. It wraps the
// last transport error, so errors.Is still sees the underlying cause
// (transport.ErrInjectedLoss, transport.ErrRefused, ...).
type CallTimeout struct {
	Addr     string // the binding's (primary) address
	Attempts int    // exchanges attempted before giving up
	LastErr  error  // last transport error; nil when breakers refused every endpoint
}

// Error implements error.
func (e *CallTimeout) Error() string {
	if e.LastErr == nil {
		return fmt.Sprintf("hrpc: call to %s timed out: no live endpoint", e.Addr)
	}
	return fmt.Sprintf("hrpc: call to %s timed out after %d attempts: %v", e.Addr, e.Attempts, e.LastErr)
}

// Unwrap exposes the last transport error to errors.Is/As.
func (e *CallTimeout) Unwrap() error { return e.LastErr }

// Is matches the ErrCallTimeout sentinel.
func (e *CallTimeout) Is(target error) bool { return target == ErrCallTimeout }

// Code reports the failure's code (see transport.CodeOf), whatever it wraps.
func (e *CallTimeout) Code() transport.Code { return transport.CodeExhausted }

// budgetState tracks a propagated deadline across a call's attempts:
// the budget when the call was encoded plus a stopwatch started then, so
// each attempt can compute what remains after the time already spent
// (backoffs, lost attempts' waits) on the caller's clock — meter time
// under the harness, wall time in a daemon.
type budgetState struct {
	active bool
	total  time.Duration
	spent  simtime.Stopwatch // started with the state

	// encode re-encodes the call frame carrying budget; nil leaves every
	// attempt on the frame roundTrip was given.
	encode func(budget time.Duration) ([]byte, error)
}

// newBudgetState captures the propagated-deadline state for one call
// (see callBudget); inactive when ctx carries no budget.
func newBudgetState(ctx context.Context) budgetState {
	d, ok := callBudget(ctx)
	if !ok {
		return budgetState{}
	}
	return budgetState{active: true, total: d, spent: simtime.Start(ctx)}
}

// remaining reports the unspent budget: the entry budget minus the time
// this call has spent since entry (never negative).
func (b budgetState) remaining() time.Duration {
	d := b.total - b.spent.Elapsed()
	if d < 0 {
		return 0
	}
	return d
}

// roundTrip sends one frame to the first live endpoint of addr's replica
// set, retransmitting after transport-level losses and failing over as
// breakers take endpoints out of rotation, within the policy's budget.
// It reports the endpoint that produced the returned reply, so the
// caller can attribute reply-carried statuses (backpressure) to it.
//
// Cost discipline: a timeout-class failure charges the current backoff
// (the wait the caller sat through to detect the loss), capped so the
// total charged wait never exceeds the budget; fast failures (refused,
// open breaker) charge nothing. With a single replica and a Budget of
// n × RetransmitTimeout this charges exactly what a fixed n-retry loop
// would, so calibrated Table 3.1 costs are reproducible.
func (c *Client) roundTrip(ctx context.Context, tr transport.Transport, addr string, frame []byte, bs budgetState, l *listener) ([]byte, string, error) {
	reg := c.registry()
	replicas := c.replicasFor(addr)
	hs := c.breakers()

	remaining := max(c.Policy.Budget, 0)
	// A caller deadline already shorter than the policy's budget clamps
	// it: scheduling a retry wait the caller will not live to see only
	// charges sim time for a reply nobody wants. The propagated budget
	// (when one is active) clamps the same way.
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < remaining {
			remaining = max(until, 0)
		}
	}
	if bs.active && bs.remaining() < remaining {
		remaining = bs.remaining()
	}

	var (
		lastErr  error
		waited   bool // lastErr was a loss the caller sat out a timer for
		attempts int
		tried    uint64 // bitmask of replica indexes that failed this call
		wait     = simtime.RetransmitTimeout
	)
	for {
		// Choose an endpoint: the first untried replica whose breaker
		// admits the call; failing that — only after a timeout-class
		// failure, where a retransmission can plausibly get through —
		// the first admitted replica again. Fast failures (refused) are
		// deterministic, so re-dialing the same dead endpoint within
		// one call is pointless.
		idx := -1
		for i, ep := range replicas {
			if i < 64 && tried&(1<<uint(i)) != 0 {
				continue
			}
			if ok, _ := hs.Breaker(ep).Allow(); ok {
				idx = i
				break
			}
		}
		if idx < 0 && waited {
			for i, ep := range replicas {
				if ok, _ := hs.Breaker(ep).Allow(); ok {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			// No breaker admits the call: fail fast, charging nothing —
			// the point of knowing an endpoint is dead is not waiting
			// on it.
			reg.Counter("hrpc_client_failfast_total").Inc()
			if lastErr == nil {
				lastErr = health.ErrNoLiveEndpoint
			}
			return nil, "", &CallTimeout{Addr: addr, Attempts: attempts, LastErr: lastErr}
		}
		ep := replicas[idx]

		// With a propagated deadline, each attempt's header carries what
		// is left of the budget NOW — after charged backoffs and
		// failovers — not the budget the call started with. The
		// re-encoded frame is a plain allocation (not pooled): the
		// in-process transport may hand back a reply aliasing the
		// request, so its lifetime must outlive the reply decode.
		attemptFrame := frame
		if bs.encode != nil {
			var err error
			if attemptFrame, err = bs.encode(bs.remaining()); err != nil {
				return nil, "", err
			}
		}
		resp, err := c.sendOnce(ctx, tr, ep, attemptFrame, l)
		attempts++
		if err == nil {
			hs.Breaker(ep).Success()
			if ep != addr {
				reg.Counter("hrpc_client_failovers_total").Inc()
			}
			return resp, ep, nil
		}
		// A live server saying no: retransmitting cannot help, and the
		// endpoint is healthy.
		code := transport.CodeOf(err)
		if code.Answered() {
			hs.Breaker(ep).Success()
			return nil, ep, err
		}
		// A dead context: surface immediately, charging nothing — the
		// caller gave up, not the endpoint.
		if ctx.Err() != nil {
			return nil, ep, err
		}
		c.recordFailure(hs, ep, err)
		if idx < 64 {
			tried |= 1 << uint(idx)
		}
		lastErr, waited = err, code.Waited()

		if !waited {
			continue // fast failure: fail over without waiting
		}
		// The caller sat out the retransmission timer to detect this
		// loss: charge it, bounded by the per-call budget.
		if wait > remaining {
			simtime.Charge(ctx, remaining)
			reg.Counter("hrpc_client_timeouts_total").Inc()
			return nil, "", &CallTimeout{Addr: addr, Attempts: attempts, LastErr: err}
		}
		simtime.Charge(ctx, wait)
		remaining -= wait
		reg.Counter("hrpc_client_retries_total").Inc()
		wait = min(2*wait, 4*simtime.RetransmitTimeout)
	}
}

// recordFailure charges one endpoint failure to ep's breaker,
// deduplicating broken-connection errors: when a multiplexed connection
// dies with many calls in flight, every caller surfaces the same
// *transport.ConnBrokenError, and the breaker must count one dead
// connection — not one failure per in-flight call (which would trip a
// healthy replica's breaker on a single socket reset).
func (c *Client) recordFailure(hs *health.Set, ep string, err error) {
	var cb *transport.ConnBrokenError
	if errors.As(err, &cb) {
		c.brokenMu.Lock()
		seen := c.brokenSeen[ep] == cb.ConnID
		if !seen {
			if c.brokenSeen == nil {
				c.brokenSeen = make(map[string]uint64)
			}
			c.brokenSeen[ep] = cb.ConnID
		}
		c.brokenMu.Unlock()
		if seen {
			return
		}
	}
	hs.Breaker(ep).Failure()
}

// sendOnce performs a single exchange over the endpoint's connection,
// redialing once if a pre-existing connection has gone stale. With l set
// it rides the cached connection even on a FreshConn client.
func (c *Client) sendOnce(ctx context.Context, tr transport.Transport, addr string, frame []byte, l *listener) ([]byte, error) {
	if c.FreshConn && l == nil {
		conn, err := tr.Dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		return conn.Call(ctx, frame)
	}
	key := tr.Name() + "!" + addr
	ep, ln, reused, err := c.acquire(ctx, tr, addr, key)
	if err != nil {
		return nil, err
	}
	resp, err := ln.call(ctx, frame, l)
	code := transport.CodeUnknown
	if err != nil {
		code = transport.CodeOf(err)
	}
	// A pre-existing connection that failed without keeping itself may
	// just be stale (the server restarted since the last call): retire it
	// and redial once. One dialed by this very call gets no second chance.
	if err != nil && reused && !code.KeepsConn() {
		c.discard(ep, ln)
		var err2 error
		if ep, ln, _, err2 = c.acquire(ctx, tr, addr, key); err2 != nil {
			return nil, err
		}
		if resp, err = ln.call(ctx, frame, l); err != nil {
			code = transport.CodeOf(err)
		}
	}
	// Otherwise it stays unless the failure broke it: a lost datagram says
	// nothing about the socket, and an expired call's reply is dropped by tag.
	if err != nil && code == transport.CodeBroken {
		c.discard(ep, ln)
		return nil, err
	}
	ep.release()
	return resp, err
}

// Close closes every endpoint's connection. A Listen fails on a closed
// client, so a listener hearing the deaths subscribes nowhere again.
func (c *Client) Close() error {
	var first error
	c.mu.Lock()
	c.closed = true
	for _, ep := range c.endpoints {
		if ep.conn == nil {
			continue
		}
		if err := ep.conn.Close(); err != nil && first == nil {
			first = err
		}
		ep.conn = nil
		ep.size.Set(0)
	}
	c.mu.Unlock()
	return first
}
