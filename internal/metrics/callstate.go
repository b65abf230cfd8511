package metrics

import (
	"context"
	"sync/atomic"
)

// CallCounter rides a single request's context and counts the backend
// fetches (cache misses) the request caused across every layer it
// crossed. core.FindNSM installs one per call and classifies the call as
// warm (zero misses: the paper's cache-hit rows) or cold afterwards.
// Counts are atomic so concurrent server-side fan-out stays race-free.
type CallCounter struct {
	misses    atomic.Int64
	coalesced atomic.Int64
}

// AddMiss records one backend fetch. No-op on a nil receiver, so layers
// report unconditionally.
func (c *CallCounter) AddMiss() {
	if c != nil {
		c.misses.Add(1)
	}
}

// Misses reports the number of backend fetches recorded so far.
func (c *CallCounter) Misses() int64 {
	if c == nil {
		return 0
	}
	return c.misses.Load()
}

// AddCoalesced records a miss that was satisfied by joining another
// caller's in-progress backend fetch (singleflight) rather than issuing
// its own. Such misses still count in Misses — the request *was* cold —
// but the backend saw no extra load for it.
func (c *CallCounter) AddCoalesced() {
	if c != nil {
		c.coalesced.Add(1)
	}
}

// Coalesced reports how many of the misses were coalesced.
func (c *CallCounter) Coalesced() int64 {
	if c == nil {
		return 0
	}
	return c.coalesced.Load()
}

type callCounterKey struct{}

// InstallCallCounter installs c in ctx. Callers that embed the counter in
// a larger per-call structure use this to avoid a second allocation.
func InstallCallCounter(ctx context.Context, c *CallCounter) context.Context {
	return context.WithValue(ctx, callCounterKey{}, c)
}

// CallCounterFrom returns the request's CallCounter, or nil.
func CallCounterFrom(ctx context.Context) *CallCounter {
	c, _ := ctx.Value(callCounterKey{}).(*CallCounter)
	return c
}
