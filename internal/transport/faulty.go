package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
)

// Failure injection: a wrapper transport that makes selected operations
// fail as if the network dropped them. Used to test the RPC layer's
// retransmission discipline and every caller's error path — datagrams on
// a 1987 Ethernet did get lost — and, via Plan, to run whole chaos
// experiments: kill a replica mid-workload, spike its latency, recover
// it, and watch the clients route around the damage.

// ErrInjectedLoss is the failure a Faulty transport injects; it mimics a
// datagram timeout (a transport-level error, distinct from a remote
// fault).
var ErrInjectedLoss error = &sentinel{"transport: injected packet loss (timeout)", CodeLost}

// FailFunc decides whether operation number n (1-based, counted per
// wrapped transport across dials and calls) should fail.
type FailFunc func(n int) bool

// DropEvery returns a FailFunc failing every k-th operation (k ≥ 1).
func DropEvery(k int) FailFunc {
	return func(n int) bool { return k > 0 && n%k == 0 }
}

// DropFirst returns a FailFunc failing the first k operations.
func DropFirst(k int) FailFunc {
	return func(n int) bool { return n <= k }
}

// epMode is an endpoint's scheduled condition in a Plan.
type epMode int

const (
	epHealthy   epMode = iota
	epKilled           // refuses connections (fast failure)
	epBlackhole        // silently drops traffic (timeout-class failure)
)

// Plan is a controllable, per-endpoint fault schedule: endpoints can be
// killed (connection refused), blackholed (silent loss), given latency
// spikes, a random loss rate, or a finite error burst, and recovered —
// all while traffic is flowing. Randomness is seeded, so a chaos run is
// reproducible. One Plan may drive several Faulty transports. Safe for
// concurrent use.
type Plan struct {
	mu  sync.Mutex
	rng *rand.Rand
	eps map[string]*endpointPlan
}

type endpointPlan struct {
	mode     epMode
	latency  time.Duration // extra simulated latency per operation
	lossRate float64       // probability an operation is dropped
	burst    int           // remaining forced-loss operations
}

// NewPlan creates a fault plan whose random decisions derive from seed.
func NewPlan(seed int64) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), eps: make(map[string]*endpointPlan)}
}

func (p *Plan) endpoint(addr string) *endpointPlan {
	ep := p.eps[addr]
	if ep == nil {
		ep = &endpointPlan{}
		p.eps[addr] = ep
	}
	return ep
}

// Kill makes addr refuse connections (and calls on existing
// connections), the way a crashed host's kernel answers.
func (p *Plan) Kill(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.endpoint(addr).mode = epKilled
}

// Blackhole makes addr silently drop all traffic — the partition case:
// callers discover it only by sitting out their retransmission timers.
func (p *Plan) Blackhole(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.endpoint(addr).mode = epBlackhole
}

// Recover returns addr to healthy and clears any pending burst. Latency
// and loss-rate settings are cleared too; re-apply them if wanted.
func (p *Plan) Recover(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.eps, addr)
}

// SetLatency adds d of simulated latency to every operation on addr — a
// congested or distant replica rather than a dead one.
func (p *Plan) SetLatency(addr string, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.endpoint(addr).latency = d
}

// SetLossRate drops each operation on addr with probability rate,
// decided by the plan's seeded generator.
func (p *Plan) SetLossRate(addr string, rate float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.endpoint(addr).lossRate = rate
}

// Burst forces the next n operations on addr to be lost, then resumes
// normal service — a transient error burst.
func (p *Plan) Burst(addr string, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.endpoint(addr).burst = n
}

// fault decides the fate of one operation against addr: extra simulated
// latency to charge, and the error to inject (nil for none).
func (p *Plan) fault(addr string) (time.Duration, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ep := p.eps[addr]
	if ep == nil {
		return 0, nil
	}
	switch ep.mode {
	case epKilled:
		return 0, fmt.Errorf("%w (chaos: %s killed)", ErrRefused, addr)
	case epBlackhole:
		return 0, fmt.Errorf("%w (chaos: %s blackholed)", ErrInjectedLoss, addr)
	}
	if ep.burst > 0 {
		ep.burst--
		return 0, fmt.Errorf("%w (chaos: %s burst)", ErrInjectedLoss, addr)
	}
	if ep.lossRate > 0 && p.rng.Float64() < ep.lossRate {
		return ep.latency, fmt.Errorf("%w (chaos: %s random loss)", ErrInjectedLoss, addr)
	}
	return ep.latency, nil
}

// Faulty wraps an inner transport, injecting failures per an optional
// FailFunc (count-based, endpoint-blind) and an optional Plan
// (endpoint-aware). Faults apply to Dial as well as Call — connection
// setup fails on a dead network just like an exchange does. Listen
// passes through untouched (the server is fine; the network isn't).
type Faulty struct {
	inner    Transport
	name     string
	fail     FailFunc         // may be nil
	plan     *Plan            // may be nil
	injected *metrics.Counter // transport_injected_faults_total{transport}

	mu    sync.Mutex
	calls int
}

// NewFaulty wraps inner under the given registry name with a count-based
// failure rule.
func NewFaulty(inner Transport, name string, fail FailFunc) *Faulty {
	f := NewChaos(inner, name, nil)
	f.fail = fail
	return f
}

// NewChaos wraps inner under the given registry name, driven by plan.
func NewChaos(inner Transport, name string, plan *Plan) *Faulty {
	return &Faulty{
		inner: inner, name: name, plan: plan,
		injected: metrics.Default().Counter(
			metrics.Labels("transport_injected_faults_total", "transport", name)),
	}
}

// Name implements Transport.
func (f *Faulty) Name() string { return f.name }

// Calls reports how many operations (dials + calls) have been attempted
// through the wrapper.
func (f *Faulty) Calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// inject decides whether the current operation against addr fails,
// charging any scheduled latency to ctx. It returns the injected error
// or nil.
func (f *Faulty) inject(ctx context.Context, addr, op string) error {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if f.fail != nil && f.fail(n) {
		f.injected.Inc()
		return fmt.Errorf("%w (%s %d)", ErrInjectedLoss, op, n)
	}
	if f.plan != nil {
		lat, err := f.plan.fault(addr)
		if lat > 0 {
			simtime.Charge(ctx, lat)
		}
		if err != nil {
			f.injected.Inc()
			return err
		}
	}
	return nil
}

// Listen implements Transport.
func (f *Faulty) Listen(addr string, h Handler) (Listener, error) {
	return f.inner.Listen(addr, h)
}

// Dial implements Transport. Connection setup is subject to the same
// faults as calls: a killed endpoint refuses, a blackholed one times out.
func (f *Faulty) Dial(ctx context.Context, addr string) (Conn, error) {
	if err := f.inject(ctx, addr, "dial"); err != nil {
		return nil, err
	}
	conn, err := f.inner.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &faultyConn{f: f, addr: addr, inner: conn}, nil
}

type faultyConn struct {
	f     *Faulty
	addr  string
	inner Conn
}

// Call implements Conn, dropping calls per the wrapper's rules.
func (c *faultyConn) Call(ctx context.Context, req []byte) ([]byte, error) {
	if err := c.f.inject(ctx, c.addr, "call"); err != nil {
		return nil, err
	}
	return c.inner.Call(ctx, req)
}

// Close implements Conn.
func (c *faultyConn) Close() error { return c.inner.Close() }
