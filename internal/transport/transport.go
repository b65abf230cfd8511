// Package transport implements the HRPC "transport protocol" component:
// how a request message is carried from one host to another and its reply
// carried back.
//
// Three transport families are provided:
//
//   - simulated ("inproc", "udp", "tcp", "udp-local", "tcp-local"): delivery
//     is an in-process function call, but each call charges the calibrated
//     round-trip cost of the transport it models. This is how the benchmark
//     harness runs a whole heterogeneous network — clients, HNS, NSMs, BIND
//     and Clearinghouse servers — inside one process with paper-scale
//     simulated latencies.
//   - real TCP ("tcp-net") and real UDP ("udp-net"): actual sockets, used by
//     the cmd/ daemons. They know nothing of the cost model: no charge, no
//     meter, and a reply body that is just [status][payload] (frame.go).
//
// Simulated cost is the simulated transports' business alone. A simulated
// call runs the handler under a fresh meter and charges the caller that
// total plus the round trip, so simulated elapsed time composes across
// any depth of nested calls exactly like wall-clock time does for
// synchronous RPC. Over a real socket the handler's ctx carries no meter,
// every simtime.Charge in it is a no-op, and elapsed time is the wall
// clock's (simtime.Stopwatch picks per ctx).
package transport

import (
	"context"
	"fmt"
	"sync"

	"hns/internal/simtime"
)

// Handler processes one request and produces a reply. On a simulated
// transport the ctx carries a fresh simtime meter whose accumulated cost
// is charged back to the caller; on a real socket it carries none. A
// returned error is propagated to the caller as a *RemoteError.
//
// Lifetime: req is only valid until the reply has been produced — the
// real-socket transports read requests into pooled buffers and recycle
// them once the reply is encoded. A handler may return a subslice of req,
// but anything it retains past returning must be copied first (the
// marshal and bind decoders already copy every leaf they keep).
type Handler func(ctx context.Context, req []byte) ([]byte, error)

// Conn is a client connection able to perform round-trip calls. Conns are
// safe for concurrent use and multiplexed: many calls may be in flight
// concurrently, each identified by a per-connection stream tag (see
// mux.go).
type Conn interface {
	// Call sends req and returns the reply payload. A simulated transport
	// charges the round-trip and remote processing costs to the meter in
	// ctx.
	Call(ctx context.Context, req []byte) ([]byte, error)
	// Close releases the connection.
	Close() error
}

// Listener is a bound server endpoint.
type Listener interface {
	// Addr reports the address clients should dial. For real transports
	// this includes the kernel-assigned port.
	Addr() string
	// Close unbinds the endpoint and drops the connections it accepted.
	Close() error
}

// Transport creates connections and listeners for one protocol family.
type Transport interface {
	// Name identifies the transport in bindings ("udp", "tcp-net", ...).
	Name() string
	// Dial connects to addr. A simulated stream transport charges its
	// connection setup cost to the meter in ctx.
	Dial(ctx context.Context, addr string) (Conn, error)
	// Listen binds addr and serves requests through h.
	Listen(addr string, h Handler) (Listener, error)
}

// RemoteError is an error produced by the remote handler (as opposed to a
// transport failure).
type RemoteError struct {
	Msg string
}

// Error implements error.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// Code reports the failure's code (see CodeOf).
func (e *RemoteError) Code() Code { return CodeRemote }

// ErrRefused reports a dial or call to an address nothing is listening on.
var ErrRefused error = &sentinel{"transport: connection refused", CodeRefused}

// ErrClosed reports use of a closed connection or listener.
var ErrClosed error = &sentinel{"transport: closed", CodeClosed}

// Network is the environment a set of transports lives in: the in-process
// endpoint table the simulated transports deliver through, and the
// transports by name. One Network models one internetwork; tests create
// isolated Networks freely.
type Network struct {
	mu         sync.RWMutex
	endpoints  map[string]*simEndpoint
	transports map[string]Transport
}

// NewNetwork creates a network and registers the standard transports. The
// variadic *simtime.Model is ignored: it is a retired shape kept only so
// bench/hnsload, which still passes one, compiles. No other caller passes
// it.
func NewNetwork(_ ...*simtime.Model) *Network {
	n := &Network{
		endpoints:  make(map[string]*simEndpoint),
		transports: make(map[string]Transport),
	}
	for _, t := range []Transport{
		newSimTransport(n, "inproc", simtime.RTTInProc, 0),
		newSimTransport(n, "udp", simtime.RTTUDP, 0),
		newSimTransport(n, "tcp", simtime.RTTTCP, simtime.TCPConnSetup),
		newSimTransport(n, "udp-local", simtime.RTTUDPLocal, 0),
		newSimTransport(n, "tcp-local", simtime.RTTTCPLocal, simtime.TCPConnSetup),
		newTCPTransport(),
		newUDPTransport(),
	} {
		n.Register(t)
	}
	return n
}

// Register installs a transport. Duplicate names panic: transport names are
// protocol identifiers stored in HNS binding records, so a collision is a
// programming error.
func (n *Network) Register(t Transport) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.transports[t.Name()]; dup {
		panic("transport: duplicate transport " + t.Name())
	}
	n.transports[t.Name()] = t
}

// Transport resolves a transport by name.
func (n *Network) Transport(name string) (Transport, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	t, ok := n.transports[name]
	if !ok {
		return nil, fmt.Errorf("transport: unknown transport %q", name)
	}
	return t, nil
}
