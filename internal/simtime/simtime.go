// Package simtime provides the simulated-cost substrate used throughout the
// HNS reproduction.
//
// The original paper (Schwartz, Zahorjan & Notkin, SOSP 1987) reports
// elapsed-time measurements taken on 1987 hardware: MicroVAX-IIs on an
// Ethernet, BIND servers with memory-resident data, and Xerox Clearinghouse
// servers that authenticate every access and read from disk. None of that
// hardware exists here, so instead of measuring wall-clock time we *model*
// it: every component in the stack (transport, control protocol,
// marshalling, server work, disk, authentication) charges its simulated cost
// to a Meter carried in the context.Context of the call.
//
// Costs compose exactly as real elapsed time does on a synchronous RPC path:
// a client charges the network round trip, and the simulated transports
// charge the server's accumulated processing cost back to the caller's
// meter (see package transport). The result is that a simulated call's
// cost is the sum of every component it actually touched — so cache hits,
// colocation, and marshalling strategy change the simulated cost through
// the same mechanisms that changed wall-clock time in the paper.
//
// The constants in model.go are calibrated against the paper's component-level
// anchors (BIND lookup 27 ms, Clearinghouse lookup 156 ms, remote NSM call
// 22–38 ms, Table 3.2's marshalling costs). Absolute agreement with the
// paper is not the goal; reproducing the shape of its results is.
package simtime

import (
	"context"
	"sync/atomic"
	"time"
)

// Meter accumulates simulated cost. It is safe for concurrent use; the
// counters are atomics, so charging and reading are lock-free — the
// observability layer reads Elapsed several times per FindNSM, and those
// reads must not serialize concurrent callers.
//
// The zero value is a valid, usable meter.
type Meter struct {
	elapsed atomic.Int64 // nanoseconds
	events  atomic.Int64
}

// NewMeter returns a fresh meter.
func NewMeter() *Meter { return &Meter{} }

// Charge adds d to the accumulated simulated cost. Negative charges are
// ignored.
func (m *Meter) Charge(d time.Duration) {
	if m == nil || d <= 0 {
		return
	}
	m.elapsed.Add(int64(d))
	m.events.Add(1)
}

// Elapsed reports the total simulated cost charged so far.
func (m *Meter) Elapsed() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.elapsed.Load())
}

// Events reports how many individual charges have been recorded.
func (m *Meter) Events() int {
	if m == nil {
		return 0
	}
	return int(m.events.Load())
}

// Reset zeroes the meter and returns the cost accumulated before the reset.
func (m *Meter) Reset() time.Duration {
	if m == nil {
		return 0
	}
	m.events.Store(0)
	return time.Duration(m.elapsed.Swap(0))
}

type meterKey struct{}

// WithMeter returns a context that carries m. Components on the call path
// charge their simulated costs to it.
func WithMeter(ctx context.Context, m *Meter) context.Context {
	return context.WithValue(ctx, meterKey{}, m)
}

// From extracts the meter carried by ctx. It returns nil when no meter is
// present; a nil *Meter is safe to call, so callers never need to check.
func From(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
}

// Charge charges d to the meter carried by ctx, if any. It is the one-line
// form used throughout the codebase.
func Charge(ctx context.Context, d time.Duration) {
	From(ctx).Charge(d)
}

// Measure runs fn with a fresh meter installed in ctx and returns the
// simulated cost fn accrued. It is the standard way benchmarks and the
// harness time a single operation.
func Measure(ctx context.Context, fn func(ctx context.Context) error) (time.Duration, error) {
	m := NewMeter()
	err := fn(WithMeter(ctx, m))
	return m.Elapsed(), err
}

// Stopwatch reads elapsed time on the one clock a call runs on: the
// meter its caller installed (the paper harness — simulated,
// deterministic) or, when ctx carries none (a daemon on real sockets),
// the wall clock. It is how latency histograms and deadline budgets
// stay in a single time base per process without a flag saying which.
type Stopwatch struct {
	meter *Meter
	base  time.Duration // meter position at Start
	wall  time.Time     // Start time; read only when meter is nil
}

// Start begins a stopwatch on ctx's clock.
func Start(ctx context.Context) Stopwatch {
	if m := From(ctx); m != nil {
		return Stopwatch{meter: m, base: m.Elapsed()}
	}
	return Stopwatch{wall: time.Now()}
}

// Elapsed reports the time since Start: exactly what the meter was
// charged in between, or the wall time that passed.
func (s Stopwatch) Elapsed() time.Duration {
	if s.meter != nil {
		return s.meter.Elapsed() - s.base
	}
	return time.Since(s.wall)
}
