// Package admission implements the server-side front door: per-client
// token-bucket rate limiting plus a global in-flight cap, with
// priority-aware shedding. A name server at fleet scale cannot afford to
// queue unboundedly — a request admitted after its caller has given up
// is pure waste — so the controller refuses excess work up front with a
// typed Overloaded error that retry machinery treats as backpressure
// (back off, don't trip the breaker: the server is alive, just busy).
//
// The controller is deliberately small: buckets refill continuously on a
// Clock (real time in daemons, a FakeClock in tests), the in-flight gauge
// is a single atomic, and everything is exported as admission_* series so
// `hnsctl admit` can watch a live daemon shed.
package admission

import (
	"fmt"
	"sync"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
)

// Priority orders work under overload: when the in-flight load passes
// the low-priority threshold, Low work is shed first while High work
// keeps flowing up to the full cap. Batch and background traffic should
// run Low; interactive single-name resolution High.
type Priority int

// Priorities.
const (
	Low  Priority = 0
	High Priority = 1
)

// String implements fmt.Stringer.
func (p Priority) String() string {
	if p == High {
		return "high"
	}
	return "low"
}

// Overloaded is the typed backpressure error: the server is healthy but
// refused the request to protect itself. RetryAfter is the server's hint
// for how long the client should back off before retrying this endpoint.
type Overloaded struct {
	Server     string
	Reason     string // "rate" (per-client bucket empty) or "load" (in-flight cap)
	RetryAfter time.Duration
}

// Error implements error.
func (e *Overloaded) Error() string {
	return fmt.Sprintf("admission: %s overloaded (%s), retry after %s",
		e.Server, e.Reason, e.RetryAfter)
}

// Config parameterizes a Controller. The zero value of any field picks
// its default.
type Config struct {
	// Rate is each client's sustained admission rate in requests per
	// second; a client may issue max(1, Rate) requests back to back
	// before the rate applies. Non-positive disables per-client rate
	// limiting.
	Rate float64

	// MaxInflight caps concurrently admitted requests across all
	// clients. Past LowWatermark of it Low-priority work is shed while
	// High-priority work continues to the full cap. Non-positive
	// disables the load cap.
	MaxInflight int

	// RetryAfter is the backoff hint carried in Overloaded errors.
	// Non-positive means DefaultRetryAfter.
	RetryAfter time.Duration

	// Clock supplies the time base for bucket refill. Nil means real
	// time.
	Clock simtime.Clock

	// Metrics receives the admission_* series. Nil means the
	// process-wide metrics.Default(); metrics.Discard disables them.
	Metrics *metrics.Registry

	// Server labels the exported series.
	Server string
}

const (
	// DefaultMaxClients bounds the per-client bucket table; when it is
	// full, new clients share one overflow bucket rather than growing
	// the map without bound.
	DefaultMaxClients = 4096
	// DefaultRetryAfter is Config.RetryAfter's default.
	DefaultRetryAfter = 50 * time.Millisecond
	// LowWatermark is the fraction of MaxInflight past which Low work
	// sheds.
	LowWatermark = 0.75
)

// Controller applies a Config to a request stream. Safe for concurrent
// use.
type Controller struct {
	cfg      Config
	burst    float64 // bucket depth, max(1, Rate)
	lowLimit int     // in-flight level past which Low work is shed

	mu       sync.Mutex
	buckets  map[string]*bucket
	overflow bucket // shared by clients past DefaultMaxClients
	inflight int

	admitted  *metrics.Counter // admission_admitted_total
	shedRate  *metrics.Counter // admission_shed_total{reason=rate}
	shedLoad  *metrics.Counter // admission_shed_total{reason=load}
	inflightG *metrics.Gauge   // admission_inflight
	clientsG  *metrics.Gauge   // admission_clients
}

// bucket is one client's token bucket. Tokens refill continuously at
// cfg.Rate up to the controller's burst.
type bucket struct {
	tokens float64
	last   time.Time
}

// New creates a controller, resolving Config defaults.
func New(cfg Config) *Controller {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Clock == nil {
		cfg.Clock = simtime.RealClock{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.Default()
	}
	if cfg.Server == "" {
		cfg.Server = "default"
	}
	c := &Controller{cfg: cfg, burst: max(1, cfg.Rate), buckets: make(map[string]*bucket)}
	c.lowLimit = max(1, int(float64(cfg.MaxInflight)*LowWatermark))
	reg := cfg.Metrics
	c.admitted = reg.Counter(metrics.Labels("admission_admitted_total",
		"server", cfg.Server))
	c.shedRate = reg.Counter(metrics.Labels("admission_shed_total",
		"server", cfg.Server, "reason", "rate"))
	c.shedLoad = reg.Counter(metrics.Labels("admission_shed_total",
		"server", cfg.Server, "reason", "load"))
	c.inflightG = reg.Gauge(metrics.Labels("admission_inflight",
		"server", cfg.Server))
	c.clientsG = reg.Gauge(metrics.Labels("admission_clients",
		"server", cfg.Server))
	return c
}

// Admit asks to admit one request from client at the given priority. On
// success it returns nil and the caller MUST call Done once the request
// finishes; on refusal it returns an *Overloaded describing why.
func (c *Controller) Admit(client string, pri Priority) error {
	c.mu.Lock()
	// Load cap first: a full server sheds regardless of whose bucket has
	// tokens, and Low work sheds at the watermark so High work retains
	// headroom.
	if c.cfg.MaxInflight > 0 {
		limit := c.cfg.MaxInflight
		if pri == Low {
			limit = c.lowLimit
		}
		if c.inflight >= limit {
			c.mu.Unlock()
			c.shedLoad.Inc()
			return &Overloaded{Server: c.cfg.Server, Reason: "load", RetryAfter: c.cfg.RetryAfter}
		}
	}
	if c.cfg.Rate > 0 && !c.take(client) {
		c.mu.Unlock()
		c.shedRate.Inc()
		return &Overloaded{Server: c.cfg.Server, Reason: "rate", RetryAfter: c.cfg.RetryAfter}
	}
	c.inflight++
	c.inflightG.Set(int64(c.inflight))
	c.mu.Unlock()
	c.admitted.Inc()
	return nil
}

// Done releases one admitted request's in-flight slot.
func (c *Controller) Done() {
	c.mu.Lock()
	if c.inflight > 0 {
		c.inflight--
	}
	c.inflightG.Set(int64(c.inflight))
	c.mu.Unlock()
}

// take consumes one token from client's bucket, refilling first. Called
// with c.mu held.
func (c *Controller) take(client string) bool {
	b := c.buckets[client]
	if b == nil {
		if len(c.buckets) >= DefaultMaxClients {
			b = &c.overflow
			if b.last.IsZero() {
				b.tokens = c.burst
				b.last = c.cfg.Clock.Now()
			}
		} else {
			b = &bucket{tokens: c.burst, last: c.cfg.Clock.Now()}
			c.buckets[client] = b
			c.clientsG.Set(int64(len(c.buckets)))
		}
	}
	now := c.cfg.Clock.Now()
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * c.cfg.Rate
		if b.tokens > c.burst {
			b.tokens = c.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
