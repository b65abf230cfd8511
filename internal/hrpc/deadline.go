package hrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hns/internal/admission"
)

// Deadline propagation. A caller with a deadline has a budget: the time
// left before its answer stops mattering. Carrying that budget with the
// call lets every layer downstream make better decisions — the retry
// policy stops scheduling waits the caller will not live to see, and a
// server sheds work whose budget is already exhausted instead of
// computing a dead reply.
//
// The budget rides a small frame prefix rather than a control-protocol
// header field: the sunrpc/courier/raw layouts are fixed, byte-pinned
// formats old peers parse, so the extension is negotiated by prefix
// sniffing. A client opted in via Client.PropagateDeadline prepends
// "HDLN" + u32 budget-ms to each attempt's frame (re-encoded per attempt, so a retry after a charged
// backoff carries the *remaining* budget); a server strips the prefix
// when present. Nothing is sent for callers without deadlines, and the
// flag defaults to off, so pre-extension peers and every calibrated
// table are untouched.

// deadlinePreamble opens a budget-prefixed call frame.
var deadlinePreamble = [4]byte{'H', 'D', 'L', 'N'}

// deadlinePrefixLen is the prefix's wire size: magic + u32 millisecond
// budget.
const deadlinePrefixLen = 8

// appendBudgetPrefix appends the budget prefix to buf. Budgets are
// clamped into [0, ~49 days] and rounded up to a whole millisecond so a
// small positive budget never truncates to "already exhausted".
func appendBudgetPrefix(buf []byte, budget time.Duration) []byte {
	ms := int64(0)
	if budget > 0 {
		ms = int64((budget + time.Millisecond - 1) / time.Millisecond)
		if ms > int64(^uint32(0)) {
			ms = int64(^uint32(0))
		}
	}
	buf = append(buf, deadlinePreamble[:]...)
	return binary.BigEndian.AppendUint32(buf, uint32(ms))
}

// stripBudgetPrefix detects and removes a budget prefix, returning the
// carried budget and the control frame proper. ok is false when the
// frame has no prefix (a pre-extension caller).
func stripBudgetPrefix(frame []byte) (budget time.Duration, rest []byte, ok bool) {
	if len(frame) < deadlinePrefixLen || [4]byte(frame[:4]) != deadlinePreamble {
		return 0, frame, false
	}
	ms := binary.BigEndian.Uint32(frame[4:8])
	return time.Duration(ms) * time.Millisecond, frame[deadlinePrefixLen:], true
}

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

// ---- Typed reply statuses.
//
// Overload and budget-shed outcomes travel in the reply's error text —
// the only channel every control protocol already carries — under
// reserved prefixes the client maps back to typed errors. A pre-extension
// client simply surfaces them as remote faults, which is safe: it backs
// off through its normal retry discipline.

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

// Reserved reply-error prefixes.
const (
	overloadedErrPrefix = "!hrpc-overloaded "
	expiredErrPrefix    = "!hrpc-expired "
)

// encodeOverloadedErr renders an admission refusal as reply-error text:
// "!hrpc-overloaded <reason> <retry-ms> <detail>".
func encodeOverloadedErr(ov *admission.Overloaded) string {
	return overloadedErrPrefix + ov.Reason + " " +
		strconv.FormatInt(int64(ov.RetryAfter/time.Millisecond), 10) + " " + ov.Error()
}

// parseOverloadedErr recognizes an overloaded reply-error string.
func parseOverloadedErr(msg string) (reason string, retryAfter time.Duration, ok bool) {
	rest, found := strings.CutPrefix(msg, overloadedErrPrefix)
	if !found {
		return "", 0, false
	}
	fields := strings.SplitN(rest, " ", 3)
	if len(fields) < 2 {
		return "", 0, false
	}
	ms, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || ms < 0 {
		return "", 0, false
	}
	return fields[0], time.Duration(ms) * time.Millisecond, true
}

// encodeExpiredErr renders a budget shed as reply-error text.
func encodeExpiredErr(proc string) string {
	return expiredErrPrefix + proc
}

// parseExpiredErr recognizes a budget-shed reply-error string.
func parseExpiredErr(msg string) (proc string, ok bool) {
	return strings.CutPrefix(msg, expiredErrPrefix)
}
