package transport

import (
	"errors"
	"net"
)

// Code names what a failed call means, in one vocabulary for the whole
// call stack: each error the stack builds carries its code through a
// Code() method, CodeOf reads it, and the codes table answers each
// question a caller asks of a failure. Nothing about it is on the wire.
type Code uint8

// The codes, and the errors that carry each.
const (
	CodeUnknown        Code = iota // any error that carries no code
	CodeRefused                    // ErrRefused: nothing listens at the address
	CodeClosed                     // ErrClosed: the connection or client is closed
	CodeLost                       // ErrInjectedLoss: an injected datagram loss
	CodeBroken                     // ErrConnBroken, *ConnBrokenError: the connection died
	CodeExpired                    // *CallExpiredError by deadline or wait ceiling
	CodeCanceled                   // *CallExpiredError by cancellation
	CodeTimeout                    // a socket net.Error whose Timeout() is true
	CodeSocket                     // any other socket net.Error
	CodeRemote                     // *RemoteError: the handler failed
	CodeRemoteFault                // *hrpc.RemoteFault: the procedure answered with a fault
	CodeExhausted                  // *hrpc.CallTimeout, hrpc.ErrCallTimeout
	CodeOverloaded                 // *hrpc.BackpressureError, hrpc.ErrOverloaded
	CodeBudgetExpired              // *hrpc.BudgetExpiredError, hrpc.ErrBudgetExpired
	CodeBadFrame                   // hrpc.ErrBadFrame
	CodeNoPush                     // hrpc.Client.Listen on a connection without pushes
	CodeNoLiveEndpoint             // health.ErrNoLiveEndpoint
	CodeNotFound                   // *bind.NotFoundError
)

// codes is the table: each code's "package.name" and answer to each question.
var codes = [...]struct {
	name                                               string
	answered, waited, keepsConn, unreachable, notFound bool
}{
	CodeUnknown:        {name: "transport.unknown"},
	CodeRefused:        {name: "transport.refused", unreachable: true},
	CodeClosed:         {name: "transport.closed", unreachable: true},
	CodeLost:           {name: "transport.lost", waited: true, unreachable: true},
	CodeBroken:         {name: "transport.broken", unreachable: true},
	CodeExpired:        {name: "transport.expired", waited: true, keepsConn: true, unreachable: true},
	CodeCanceled:       {name: "transport.canceled", keepsConn: true, unreachable: true},
	CodeTimeout:        {name: "transport.timeout", waited: true, unreachable: true},
	CodeSocket:         {name: "transport.socket", unreachable: true},
	CodeRemote:         {name: "transport.remote", answered: true, keepsConn: true},
	CodeRemoteFault:    {name: "hrpc.remote_fault", answered: true, keepsConn: true},
	CodeExhausted:      {name: "hrpc.exhausted", unreachable: true},
	CodeOverloaded:     {name: "hrpc.overloaded", keepsConn: true},
	CodeBudgetExpired:  {name: "hrpc.budget_expired", keepsConn: true},
	CodeBadFrame:       {name: "hrpc.bad_frame"},
	CodeNoPush:         {name: "hrpc.no_push", answered: true, keepsConn: true},
	CodeNoLiveEndpoint: {name: "health.no_live_endpoint", unreachable: true},
	CodeNotFound:       {name: "bind.not_found", answered: true, keepsConn: true, notFound: true},
}

// CodeOf classifies a failure: the code of the outermost error in err's
// chain that carries one, else a socket net.Error's class by Timeout(),
// else CodeUnknown. Nothing else looks at a failure's type.
func CodeOf(err error) Code {
	var c interface{ Code() Code }
	var ne net.Error
	switch {
	case errors.As(err, &c):
		return c.Code()
	case !errors.As(err, &ne):
		return CodeUnknown
	case ne.Timeout():
		return CodeTimeout
	}
	return CodeSocket
}

// String reports the code's "package.name" form.
func (c Code) String() string { return codes[c].name }

// Answered reports whether a live server answered: the endpoint is
// healthy, and nothing is retried.
func (c Code) Answered() bool { return codes[c].answered }

// Waited reports whether the caller sat out a timer to detect the
// failure, so backoff is charged and the call retransmits.
func (c Code) Waited() bool { return codes[c].waited }

// KeepsConn reports whether the connection the call failed on stays open.
func (c Code) KeepsConn() bool { return codes[c].keepsConn }

// Unreachable reports whether the backend could not be reached: the
// only failure that justifies trying a replica or answering stale.
func (c Code) Unreachable() bool { return codes[c].unreachable }

// NotFound reports whether the name asked for is not there.
func (c Code) NotFound() bool { return codes[c].notFound }

// sentinel is a comparable error value carrying its code.
type sentinel struct {
	msg  string
	code Code
}

func (e *sentinel) Error() string { return e.msg }
func (e *sentinel) Code() Code    { return e.code }
