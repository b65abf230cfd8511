// Package health tracks per-endpoint liveness with consecutive-failure
// circuit breakers. The HNS fronts name services it does not control —
// BIND replicas, Clearinghouses, NSMs — and a dead backend must cost one
// detection, not one timeout per call. A Set holds one Breaker per
// endpoint address; RPC clients consult the breaker before dialing and
// report the outcome after, so traffic routes itself around endpoints
// that have stopped answering and probes them back in once they recover.
//
// The state machine is the classic three-state breaker:
//
//	Closed ──(Threshold consecutive failures)──▶ Open
//	Open ──(Cooldown elapses; next caller becomes the probe)──▶ HalfOpen
//	HalfOpen ──(probe succeeds)──▶ Closed
//	HalfOpen ──(probe fails)──▶ Open (cooldown restarts)
//
// While Open, Allow refuses every caller, so a breaker-aware client
// fails over (or fails fast) without charging the caller any simulated
// wait. HalfOpen admits exactly one in-flight probe; concurrent callers
// are refused until the probe concludes, so a recovering server sees one
// request, not a stampede.
package health

import (
	"sync"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// ErrNoLiveEndpoint is returned by breaker-aware clients when every
// replica's breaker refuses the call — the fail-fast outcome.
var ErrNoLiveEndpoint error = noLiveEndpoint{}

type noLiveEndpoint struct{}

func (noLiveEndpoint) Error() string        { return "health: no live endpoint" }
func (noLiveEndpoint) Code() transport.Code { return transport.CodeNoLiveEndpoint }

// State is a breaker's position in the state machine.
type State int32

// Breaker states. The numeric values are exported as the breaker_state
// gauge, so they are part of the metrics contract.
const (
	Closed   State = 0 // endpoint healthy; calls flow
	Open     State = 1 // endpoint presumed dead; calls refused until cooldown
	HalfOpen State = 2 // probationary; a single probe is in flight
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Config parameterizes a Set. The zero value is usable.
type Config struct {
	// Cooldown is how long an Open breaker refuses calls before letting
	// a single probe through. Non-positive means DefaultCooldown. The
	// cooldown is measured on Clock — real time in daemons, a FakeClock
	// in experiments — never on simulated call time.
	Cooldown time.Duration

	// Clock supplies the time base for cooldowns. Nil means real time.
	Clock simtime.Clock

	// Metrics receives the endpoint_health / breaker_* series. Nil means
	// the process-wide metrics.Default(); metrics.Discard disables them.
	Metrics *metrics.Registry

	// Service labels the exported series, so several breaker sets in one
	// process (meta-BIND vs. an NSM's underlying server) stay distinct.
	// Empty means "default".
	Service string
}

const (
	// Threshold is how many consecutive failures open a breaker.
	Threshold = 3
	// DefaultCooldown is Config.Cooldown's default.
	DefaultCooldown = 5 * time.Second
)

// Set is a collection of breakers, one per endpoint address, created
// lazily on first use. Safe for concurrent use.
type Set struct {
	cfg Config

	mu       sync.RWMutex
	breakers map[string]*Breaker
}

// NewSet creates a breaker set, resolving Config defaults.
func NewSet(cfg Config) *Set {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.RealClock{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default()
	}
	if cfg.Service == "" {
		cfg.Service = "default"
	}
	return &Set{cfg: cfg, breakers: make(map[string]*Breaker)}
}

// Breaker returns endpoint's breaker, creating it (Closed) on first use.
func (s *Set) Breaker(endpoint string) *Breaker {
	s.mu.RLock()
	b := s.breakers[endpoint]
	s.mu.RUnlock()
	if b != nil {
		return b
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if b = s.breakers[endpoint]; b != nil {
		return b
	}
	reg := s.cfg.Metrics
	b = &Breaker{
		cfg: &s.cfg,
		healthy: reg.Gauge(metrics.Labels("endpoint_health",
			"service", s.cfg.Service, "endpoint", endpoint)),
		stateG: reg.Gauge(metrics.Labels("breaker_state",
			"service", s.cfg.Service, "endpoint", endpoint)),
		opens: reg.Counter(metrics.Labels("breaker_opens_total",
			"service", s.cfg.Service, "endpoint", endpoint)),
		probes: reg.Counter(metrics.Labels("breaker_probes_total",
			"service", s.cfg.Service, "endpoint", endpoint)),
		failures: reg.Counter(metrics.Labels("breaker_failures_total",
			"service", s.cfg.Service, "endpoint", endpoint)),
		backpr: reg.Counter(metrics.Labels("breaker_backpressure_total",
			"service", s.cfg.Service, "endpoint", endpoint)),
	}
	b.healthy.Set(1)
	s.breakers[endpoint] = b
	return b
}

// Breaker is one endpoint's health state. Callers ask Allow before a
// call and report Success or Failure after; the breaker does the rest.
type Breaker struct {
	cfg *Config

	healthy  *metrics.Gauge   // 1 while calls are admitted normally, 0 while open
	stateG   *metrics.Gauge   // numeric State
	opens    *metrics.Counter // transitions into Open
	probes   *metrics.Counter // half-open probes admitted
	failures *metrics.Counter // failures reported
	backpr   *metrics.Counter // backpressure windows recorded

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while Closed
	openedAt time.Time // Clock time of the last transition into Open
	probing  bool      // a half-open probe is in flight

	// backoffUntil is the server-requested backpressure window: an
	// Overloaded reply means the endpoint is alive but shedding, so Allow
	// refuses calls until the window passes without opening the breaker
	// (no probe discipline, no cooldown — the server named its own
	// retry-after). Sharing the breaker table keeps one map of endpoint
	// state, not two.
	backoffUntil time.Time
}

// Allow reports whether a call to this endpoint may proceed. The second
// result is true when the admitted call is the half-open probe — its
// outcome decides whether the endpoint rejoins the rotation. A caller
// that gets (true, _) must report Success or Failure afterwards.
func (b *Breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if !b.backoffUntil.IsZero() {
			if b.cfg.Clock.Now().Before(b.backoffUntil) {
				return false, false
			}
			b.backoffUntil = time.Time{}
		}
		return true, false
	case Open:
		if b.cfg.Clock.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false, false
		}
		// Cooldown served: this caller becomes the probe.
		b.state = HalfOpen
		b.probing = true
		b.stateG.Set(int64(HalfOpen))
		b.probes.Inc()
		return true, true
	default: // HalfOpen
		if b.probing {
			return false, false
		}
		b.probing = true
		b.probes.Inc()
		return true, true
	}
}

// Success records a successful call: the endpoint is healthy, whatever
// state the breaker was in.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.fails = 0
	b.probing = false
	b.healthy.Set(1)
	b.stateG.Set(int64(Closed))
}

// Failure records a failed call. The breaker opens after Threshold
// consecutive failures, or immediately when a half-open probe fails.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures.Inc()
	b.fails++
	if b.state == HalfOpen || (b.state == Closed && b.fails >= Threshold) {
		if b.state != Open {
			b.opens.Inc()
		}
		b.state = Open
		b.openedAt = b.cfg.Clock.Now()
		b.probing = false
		b.healthy.Set(0)
		b.stateG.Set(int64(Open))
	} else if b.state == Open {
		// A straggler failing after the breaker already opened (two
		// calls were in flight): restart the cooldown.
		b.openedAt = b.cfg.Clock.Now()
	}
}

// Backpressure records a server-requested backoff: the endpoint answered
// Overloaded, so calls are refused for d without counting a failure or
// opening the breaker — the server is alive, just shedding. A longer
// window already in force is kept; Success and Failure leave the window
// untouched (an admitted probe that squeaks through early does not erase
// the server's own retry-after hint — the window simply expires).
func (b *Breaker) Backpressure(d time.Duration) {
	if d <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	until := b.cfg.Clock.Now().Add(d)
	if until.After(b.backoffUntil) {
		b.backoffUntil = until
	}
	b.backpr.Inc()
}

// State reports the breaker's current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
