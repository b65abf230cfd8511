package hrpc

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Deadline propagation. A caller with a deadline has a budget: the time
// left before its answer stops mattering. Carrying that budget with the
// call lets every layer downstream make better decisions — the retry
// policy stops scheduling waits the caller will not live to see, and a
// server sheds work whose budget is already exhausted instead of
// computing a dead reply.
//
// A raw-suite call carries the budget as a flagged header field
// (rawctl.go) whenever its ctx has one — an explicit WithBudget value,
// else the ctx deadline — re-encoded per attempt, so a retry after a
// charged backoff carries the *remaining* budget. Callers without either
// send none. The emulated Sun RPC and Courier headers have no room for
// it and carry none.

// budgetCtxKey carries a call budget through a context.
type budgetCtxKey struct{}

// WithBudget returns a context carrying an explicit call budget, on
// whichever clock ctx runs (simtime.Stopwatch). Servers install the
// received budget here so nested clients (a gateway forwarding the
// call) can propagate what remains.
func WithBudget(ctx context.Context, budget time.Duration) context.Context {
	return context.WithValue(ctx, budgetCtxKey{}, budget)
}

// BudgetFrom reports the call budget in ctx, if one was installed.
func BudgetFrom(ctx context.Context) (time.Duration, bool) {
	d, ok := ctx.Value(budgetCtxKey{}).(time.Duration)
	return d, ok
}

// callBudget reports the budget a call made under ctx carries: an
// explicit WithBudget value (a server forwarding an inbound budget) wins
// over the ctx deadline; without either there is none.
func callBudget(ctx context.Context) (time.Duration, bool) {
	if d, ok := BudgetFrom(ctx); ok {
		return d, true
	}
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl), true
	}
	return 0, false
}

// ---- Typed reply statuses.
//
// Overload and budget-shed outcomes are reply codes (ReplyOverloaded,
// ReplyExpired) the client maps to these typed errors. Over the emulated
// suites they arrive as plain fault text and surface as *RemoteFault.

// ErrOverloaded is matched (errors.Is) by backpressure errors: the
// server is alive but shedding load. Retry machinery must not trip the
// endpoint's breaker on it — back off instead.
var ErrOverloaded = errors.New("hrpc: server overloaded")

// BackpressureError is the client-side form of a server's Overloaded
// reply.
type BackpressureError struct {
	Endpoint   string
	Reason     string // "rate" or "load"
	RetryAfter time.Duration
}

// Error implements error.
func (e *BackpressureError) Error() string {
	return fmt.Sprintf("hrpc: %s overloaded (%s), retry after %s",
		e.Endpoint, e.Reason, e.RetryAfter)
}

// Is matches the ErrOverloaded sentinel.
func (e *BackpressureError) Is(target error) bool { return target == ErrOverloaded }

// ErrBudgetExpired is matched (errors.Is) by budget-shed errors: the
// server refused the call because its propagated budget was already
// exhausted on arrival.
var ErrBudgetExpired = errors.New("hrpc: call budget expired")

// BudgetExpiredError is the client-side form of a server's budget shed.
type BudgetExpiredError struct {
	Endpoint string
	Proc     string
}

// Error implements error.
func (e *BudgetExpiredError) Error() string {
	return fmt.Sprintf("hrpc: %s shed %s: budget expired before dispatch", e.Endpoint, e.Proc)
}

// Is matches the ErrBudgetExpired sentinel.
func (e *BudgetExpiredError) Is(target error) bool { return target == ErrBudgetExpired }
