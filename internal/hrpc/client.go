package hrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
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
	// connection instead of using the cache. The Raw protocol suite of
	// the era worked this way — one request/response exchange per
	// connection — and the HNS's interface to its meta-BIND pays the
	// resulting per-call setup cost. Set before first use.
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

// Network exposes the client's network (for components that dial
// directly).
func (c *Client) Network() *transport.Network { return c.net }

// RemoteFault is an application-level error returned by the remote
// procedure, as distinguished from a transport or protocol failure.
type RemoteFault struct {
	Proc string
	Msg  string
}

// Error implements error.
func (e *RemoteFault) Error() string { return fmt.Sprintf("hrpc: %s: %s", e.Proc, e.Msg) }

// Call invokes procedure p on the server identified by b, marshalling args
// and unmarshalling the result according to the binding's components. All
// simulated costs on the call path are charged to the meter in ctx. A
// budget in ctx (WithBudget, else its deadline) travels with every
// attempt on the raw suite; see deadline.go.
func (c *Client) Call(ctx context.Context, b Binding, p Procedure, args marshal.Value) (_ marshal.Value, err error) {
	reg := c.registry()
	if reg.Enabled() {
		reg.Counter(metrics.Labels("hrpc_client_calls_total", "proc", p.Name)).Inc()
		sw := simtime.Start(ctx)
		defer func() {
			reg.Histogram(metrics.Labels("hrpc_client_call_ms", "addr", b.Addr)).
				Observe(sw.Elapsed())
			if err != nil {
				reg.Counter(metrics.Labels("hrpc_client_errors_total",
					"kind", errKind(err))).Inc()
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
	argBytes, err := marshalArgs(ctx, ctl, rep, p, args)
	if err != nil {
		return marshal.Value{}, err
	}
	defer bufpool.Put(argBytes)
	h := CallHeader{XID: c.xid.Add(1), Program: b.Program, Version: b.Version, Procedure: p.ID}
	frame, err := appendCall(ctl, bufpool.Get(48+len(argBytes)), h, argBytes)
	if err != nil {
		return marshal.Value{}, err
	}
	defer bufpool.Put(frame)

	bs := newBudgetState(ctx)
	if bs.active {
		bs.encode = func(budget time.Duration) ([]byte, error) {
			h.Budget, h.HasBudget = budget, true
			return ctl.EncodeCall(h, argBytes)
		}
	}
	respFrame, ep, err := c.roundTrip(ctx, tr, b.Addr, frame, bs)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s to %s: %w", p.Name, b.Addr, err)
	}
	ret, err := decodeResult(ctx, ctl, rep, p, respFrame, ep)
	var bp *BackpressureError
	if errors.As(err, &bp) {
		// An Overloaded reply is backpressure, not failure: record the
		// server's retry-after on the endpoint's breaker (the shared
		// breaker table IS the per-endpoint backoff state) so the next
		// call routes around the shedding endpoint without tripping it.
		c.breakers().Breaker(ep).Backpressure(bp.RetryAfter)
		reg.Counter(metrics.Labels("hrpc_client_backpressure_total", "addr", ep)).Inc()
	}
	return ret, err
}

// marshalArgs is the client-side stub work before a call: the control
// protocol's bookkeeping charge, then args marshalled into a pooled
// buffer the caller recycles.
func marshalArgs(ctx context.Context, ctl ControlProtocol, rep marshal.DataRep, p Procedure, args marshal.Value) ([]byte, error) {
	simtime.Charge(ctx, ctl.Overhead())
	argBytes, err := rep.Append(bufpool.Get(64), args, p.Args)
	if err != nil {
		return nil, fmt.Errorf("hrpc: %s: marshal args: %w", p.Name, err)
	}
	marshal.ChargeValue(ctx, p.Style, args)
	return argBytes, nil
}

// decodeResult is the client-side stub work after a call: it decodes the
// reply frame, maps a non-OK code to its typed error (*RemoteFault,
// *BackpressureError or *BudgetExpiredError, attributed to endpoint ep),
// and unmarshals an OK reply's results.
func decodeResult(ctx context.Context, ctl ControlProtocol, rep marshal.DataRep, p Procedure, frame []byte, ep string) (marshal.Value, error) {
	rh, resBytes, err := ctl.DecodeReply(frame)
	if err != nil {
		return marshal.Value{}, fmt.Errorf("hrpc: %s: %w", p.Name, err)
	}
	switch rh.Code {
	case ReplyOK:
	case ReplyOverloaded:
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
	marshal.ChargeValue(ctx, p.Style, ret)
	return ret, nil
}

// ErrCallTimeout is matched (errors.Is) by the error roundTrip returns
// when a call exhausts its retry budget or no replica's breaker admits
// it — "backend unreachable", as distinguished from marshalling errors
// and remote faults. The concrete error is a *CallTimeout.
var ErrCallTimeout = errors.New("hrpc: call timed out")

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

// Unavailable reports whether err means the backend could not be
// reached: the call timed out, no replica was live, or the transport
// failed outright. It is false for remote faults and remote errors — a
// live server answering, however unhelpfully, is not an availability
// failure. Serve-stale logic keys off this predicate.
func Unavailable(err error) bool {
	if err == nil {
		return false
	}
	var rf *RemoteFault
	if errors.As(err, &rf) {
		return false
	}
	if errors.Is(err, ErrCallTimeout) || errors.Is(err, health.ErrNoLiveEndpoint) {
		return true
	}
	return transport.Unavailable(err)
}

// errKind buckets a call error for hrpc_client_errors_total.
func errKind(err error) string {
	if errors.Is(err, ErrOverloaded) {
		return "overloaded"
	}
	if errors.Is(err, ErrBudgetExpired) {
		return "budget_expired"
	}
	var rf *RemoteFault
	if errors.As(err, &rf) {
		return "remote_fault"
	}
	var re *transport.RemoteError
	if errors.As(err, &re) {
		return "remote_error"
	}
	if errors.Is(err, ErrCallTimeout) {
		return "timeout"
	}
	return "transport"
}

// timeoutClass reports whether err looks like a silent loss — the
// caller sat out a retransmission timer to detect it — rather than a
// fast failure (refused, closed) the caller learned about immediately.
// Only timeout-class failures charge backoff to the caller's meter.
func timeoutClass(err error) bool {
	if errors.Is(err, transport.ErrInjectedLoss) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

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
func (c *Client) roundTrip(ctx context.Context, tr transport.Transport, addr string, frame []byte, bs budgetState) ([]byte, string, error) {
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
		if idx < 0 && timeoutClass(lastErr) {
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
		resp, err := c.sendOnce(ctx, tr, ep, attemptFrame)
		attempts++
		if err == nil {
			hs.Breaker(ep).Success()
			if ep != addr {
				reg.Counter("hrpc_client_failovers_total").Inc()
			}
			return resp, ep, nil
		}
		// A RemoteError is a live server saying no; retransmitting
		// cannot help, and the endpoint is healthy.
		var re *transport.RemoteError
		if errors.As(err, &re) {
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
		lastErr = err

		if !timeoutClass(err) {
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
// redialing once if a pre-existing connection has gone stale.
func (c *Client) sendOnce(ctx context.Context, tr transport.Transport, addr string, frame []byte) ([]byte, error) {
	if c.FreshConn {
		conn, err := tr.Dial(ctx, addr)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		return conn.Call(ctx, frame)
	}
	key := tr.Name() + "!" + addr
	ep, conn, reused, err := c.acquire(ctx, tr, addr, key)
	if err != nil {
		return nil, err
	}
	resp, err := conn.Call(ctx, frame)
	if err == nil {
		ep.release()
		return resp, nil
	}
	// A remote error came over a healthy exchange; an expired call left
	// a healthy multiplexed connection (its reply will be dropped by
	// tag). Both keep the connection.
	var re *transport.RemoteError
	var ce *transport.CallExpiredError
	if errors.As(err, &re) || errors.As(err, &ce) {
		ep.release()
		return nil, err
	}
	// A connection dialed by this very call gets no second chance — but
	// it is kept unless it is actually broken (a lost datagram says
	// nothing about the socket; the next attempt reuses it).
	if !reused {
		if errors.Is(err, transport.ErrConnBroken) {
			c.discard(ep, conn)
		} else {
			ep.release()
		}
		return nil, err
	}
	// A pre-existing connection may simply have gone stale (server
	// restarted since the last call): retire it and redial once within
	// the same attempt.
	c.discard(ep, conn)
	ep, conn, _, err2 := c.acquire(ctx, tr, addr, key)
	if err2 != nil {
		return nil, err
	}
	resp, err = conn.Call(ctx, frame)
	if err == nil || !errors.Is(err, transport.ErrConnBroken) {
		ep.release()
	} else {
		c.discard(ep, conn)
	}
	return resp, err
}

// Close closes every endpoint's connection.
func (c *Client) Close() error {
	var first error
	c.mu.Lock()
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
