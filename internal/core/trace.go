package core

import (
	"context"
	"fmt"
	"time"
)

// FindNSM step tracing. A tracer installed in the context receives one
// span-style Event per data mapping as FindNSM executes, making the
// paper's six-mapping structure observable — hnsbench's Figure 2.1 trace
// uses it. Tracing costs nothing when absent.

// Cache states an Event can report for its step.
const (
	CacheWarm = "warm" // the step was served entirely from cache
	CacheCold = "cold" // the step went to a backend at least once
)

// Event is one FindNSM mapping step.
type Event struct {
	// Step is the step identifier: "mapping 1" … "mapping 6", or
	// "resolved" for the final address line.
	Step string
	// Detail is the human-readable description of what the step mapped.
	Detail string
	// Duration is the simulated time the step consumed (zero when the
	// context carries no simtime meter).
	Duration time.Duration
	// Cache is CacheWarm or CacheCold, by whether the step caused any
	// backend fetches.
	Cache string
}

// String renders the event as the classic one-line trace form.
func (e Event) String() string { return e.Step + ": " + e.Detail }

// EventFunc receives one Event per FindNSM step.
type EventFunc func(Event)

type traceKey struct{}

// WithTracer installs fn as the structured FindNSM step tracer in ctx.
func WithTracer(ctx context.Context, fn EventFunc) context.Context {
	return context.WithValue(ctx, traceKey{}, fn)
}

// tracer returns the installed EventFunc, or nil.
func tracer(ctx context.Context) EventFunc {
	fn, _ := ctx.Value(traceKey{}).(EventFunc)
	return fn
}

// emit delivers a step event if the call carries a tracer. The tracer is
// looked up once per FindNSM call (see stepObs), not per step, and the
// detail's string arguments are boxed and formatted only when traced.
func (s *stepObs) emit(step string, d time.Duration, cache string, format string, args ...string) {
	if s == nil || s.fn == nil {
		return
	}
	boxed := make([]any, len(args))
	for i, a := range args {
		boxed[i] = a
	}
	s.fn(Event{
		Step:     step,
		Detail:   fmt.Sprintf(format, boxed...),
		Duration: d,
		Cache:    cache,
	})
}
