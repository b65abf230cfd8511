package hrpc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// CallHeader is the control-protocol-independent view of a call header.
//
// XID is the transaction ID of the emulated Sun RPC and Courier headers,
// which carry it byte-for-byte; the raw suite has none (the transport's
// stream tag correlates replies) and decodes it as zero.
//
// Budget is the caller's remaining deadline when HasBudget is set. Only
// the raw suite carries it (a flagged header field, millisecond
// granularity); the emulated headers have no room for it and decode
// HasBudget false.
type CallHeader struct {
	XID       uint32
	Program   uint32
	Version   uint32
	Procedure uint32

	Budget    time.Duration
	HasBudget bool
}

// ReplyCode is a reply's coded status. The raw suite sends it as its one
// status byte; the emulated suites render every non-OK code as their
// native error reply, which decodes as ReplyFault.
type ReplyCode uint8

// The reply code table.
const (
	ReplyOK         ReplyCode = 0 // results follow
	ReplyFault      ReplyCode = 1 // Err is the remote error text
	ReplyOverloaded ReplyCode = 2 // admission shed: Err is the reason, RetryAfter the hint
	ReplyExpired    ReplyCode = 3 // the call's budget ran out before dispatch
)

// ReplyHeader is the control-protocol-independent view of a reply header.
type ReplyHeader struct {
	XID        uint32
	Code       ReplyCode
	Err        string        // ReplyFault: error text; ReplyOverloaded: shed reason
	RetryAfter time.Duration // ReplyOverloaded only
}

// text renders a non-OK reply as the error text of a suite that has no
// code table of its own.
func (h ReplyHeader) text() string {
	switch h.Code {
	case ReplyOverloaded:
		return fmt.Sprintf("server overloaded (%s), retry after %s", h.Err, h.RetryAfter)
	case ReplyExpired:
		return "call budget expired before dispatch"
	default:
		return h.Err
	}
}

// ControlProtocol is the HRPC "control protocol" component: the header
// format used internally by the RPC facility to track the state of a call.
// Implementations must be safe for concurrent use.
type ControlProtocol interface {
	// Name identifies the protocol in bindings ("sunrpc", "courier",
	// "raw").
	Name() string
	// EncodeCall prepends a call header to the marshalled arguments.
	EncodeCall(h CallHeader, args []byte) ([]byte, error)
	// DecodeCall splits a request frame into header and arguments.
	DecodeCall(frame []byte) (CallHeader, []byte, error)
	// EncodeReply prepends a reply header to the marshalled results.
	EncodeReply(h ReplyHeader, results []byte) ([]byte, error)
	// DecodeReply splits a reply frame into header and results.
	DecodeReply(frame []byte) (ReplyHeader, []byte, error)
	// Overhead reports the per-call client-side bookkeeping cost of this
	// protocol (header construction, XID tracking, retransmission
	// timers).
	Overhead() time.Duration
}

// CallAppender is the pooled-buffer fast path of a control protocol:
// append the call header and arguments to a caller-supplied buffer
// instead of allocating a fresh frame. Implementations must produce
// bytes identical to EncodeCall. All built-in protocols implement it;
// external protocols may omit it and take the allocating path.
type CallAppender interface {
	AppendCall(buf []byte, h CallHeader, args []byte) ([]byte, error)
}

// ReplyAppender is the reply-side counterpart of CallAppender.
type ReplyAppender interface {
	AppendReply(buf []byte, h ReplyHeader, results []byte) ([]byte, error)
}

// appendCall encodes a call into buf via the protocol's appender when it
// has one, falling back to EncodeCall (whose result replaces buf).
func appendCall(ctl ControlProtocol, buf []byte, h CallHeader, args []byte) ([]byte, error) {
	if a, ok := ctl.(CallAppender); ok {
		return a.AppendCall(buf, h, args)
	}
	return ctl.EncodeCall(h, args)
}

// ErrBadFrame reports a control-protocol frame that cannot be parsed.
var ErrBadFrame = errors.New("hrpc: malformed control frame")

// The control-protocol registry, mirroring the data-representation
// registry in package marshal: binding records store component *names*,
// and the client resolves them here at call time.

var (
	ctlMu sync.RWMutex
	ctls  = map[string]ControlProtocol{}
)

// RegisterControl installs a control protocol. Duplicate names panic.
func RegisterControl(c ControlProtocol) {
	ctlMu.Lock()
	defer ctlMu.Unlock()
	if _, dup := ctls[c.Name()]; dup {
		panic("hrpc: duplicate control protocol " + c.Name())
	}
	ctls[c.Name()] = c
}

// LookupControl resolves a control protocol by name.
func LookupControl(name string) (ControlProtocol, error) {
	ctlMu.RLock()
	defer ctlMu.RUnlock()
	c, ok := ctls[name]
	if !ok {
		return nil, fmt.Errorf("hrpc: unknown control protocol %q", name)
	}
	return c, nil
}

// ControlNames lists registered control protocols, sorted.
func ControlNames() []string {
	ctlMu.RLock()
	defer ctlMu.RUnlock()
	out := make([]string, 0, len(ctls))
	for n := range ctls {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	RegisterControl(SunRPCControl{})
	RegisterControl(CourierControl{})
	RegisterControl(RawControl{})
}
