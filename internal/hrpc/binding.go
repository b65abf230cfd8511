// Package hrpc implements the Heterogeneous Remote Procedure Call facility
// (Bershad et al. 1987) the HNS was built for and stress-tested by.
//
// HRPC factors an RPC facility into five components with clean interfaces:
//
//   - stubs: here, Procedure descriptors declaring argument/result types
//     (standing in for stub-compiler output);
//   - binding protocol: how a client locates a particular server — the
//     portmapper client in this package plus the binding NSMs in package
//     nsm;
//   - data representation: package marshal (XDR for Sun RPC, Courier for
//     Courier, Packed for the Raw suite);
//   - transport protocol: package transport;
//   - control protocol: the call/reply header formats in this package
//     (Sun RPC-style, Courier-style, and the Raw suite).
//
// The defining property is that the last four components are "black boxes"
// that can be mixed and matched *at bind time*, long after the client was
// written and linked: a Binding names the component set plus the endpoint,
// and Client.Call assembles the protocol stack from those names on every
// call. That is exactly what lets one client import Sun RPC, Courier, and
// raw message-passing services through a single interface.
package hrpc

import (
	"fmt"

	"hns/internal/marshal"
)

// Binding is the system-independent handle a client needs to call a remote
// procedure: the endpoint plus the names of the four dynamically selected
// protocol components. It is what FindNSM returns for NSMs and what binding
// NSMs return for application servers.
type Binding struct {
	// Host is the (descriptive) host name the server lives on. Binding
	// NSMs fill it for application servers; the HNS leaves it empty on
	// the NSM bindings FindNSM returns, since no caller dials by it.
	Host string
	// Addr is the transport address to dial.
	Addr string
	// Transport, DataRep, and Control name the protocol components,
	// resolved through the transport.Network and the package registries.
	Transport string
	DataRep   string
	Control   string
	// Program and Version identify the remote program, in the Sun RPC
	// sense; Courier calls them program and version too.
	Program uint32
	Version uint32
}

// String implements fmt.Stringer.
func (b Binding) String() string {
	return fmt.Sprintf("%s/%s/%s!%s#%d.%d", b.Transport, b.Control, b.DataRep, b.Addr, b.Program, b.Version)
}

// Validate checks that the binding is plausibly complete. Component names
// are resolved lazily at call time; Validate only catches obviously empty
// bindings early.
func (b Binding) Validate() error {
	switch {
	case b.Addr == "":
		return fmt.Errorf("hrpc: binding %v has no address", b)
	case b.Transport == "":
		return fmt.Errorf("hrpc: binding %v has no transport", b)
	case b.DataRep == "":
		return fmt.Errorf("hrpc: binding %v has no data representation", b)
	case b.Control == "":
		return fmt.Errorf("hrpc: binding %v has no control protocol", b)
	}
	return nil
}

// Procedure describes one remote procedure the way a generated stub would:
// its number, argument and result types, and the marshalling style of the
// stubs. Interfaces are shared between client and server by sharing
// Procedure values.
type Procedure struct {
	// Name is used in errors and traces.
	Name string
	// ID is the procedure number within the program.
	ID uint32
	// Args and Ret are the declared message shapes on the wire.
	Args marshal.Type
	Ret  marshal.Type
	// PaperArgs and PaperRet, when set, are the 1987 shapes the stubs are
	// priced by where the wire has since dropped fields (the HNS
	// program's individual and NSM host): marshal.ChargeValue counts
	// their nodes, reading only list lengths from the live message.
	PaperArgs marshal.Type
	PaperRet  marshal.Type
	// Style prices the stub marshalling: StyleGenerated for stub-compiler
	// output (the default), StyleNone for interfaces that charge their
	// own marshalling costs.
	Style marshal.Style
}

// paper is the shape a message is priced by: the declared 1987 one, or
// the wire's when none is declared.
func paper(declared, wire marshal.Type) marshal.Type {
	if declared.Kind == marshal.KindInvalid {
		return wire
	}
	return declared
}

// Suite bundles the component selection of a protocol family, as the
// paper's "protocol suites" did. Predefined suites mirror the systems the
// HCS prototype emulated.
type Suite struct {
	Transport string
	DataRep   string
	Control   string
}

// The protocol suites of the HCS environment. The transport entries name
// the simulated remote transports; deployments on real sockets substitute
// "udp-net"/"tcp-net".
var (
	// SuiteSunRPC is Sun RPC: UDP, XDR, ONC-style control.
	SuiteSunRPC = Suite{Transport: "udp", DataRep: "xdr", Control: "sunrpc"}
	// SuiteCourier is Xerox Courier: TCP (SPP stand-in), Courier data rep
	// and control.
	SuiteCourier = Suite{Transport: "tcp", DataRep: "courier", Control: "courier"}
	// SuiteRaw is the Raw HRPC suite: TCP message passing with a minimal
	// request/response header ("make a request and wait for a response")
	// and the packed data representation. Only this repository's own
	// daemons speak it, so it carries no foreign system's encoding.
	SuiteRaw = Suite{Transport: "tcp", DataRep: "packed", Control: "raw"}
	// SuiteLocal is the in-process suite used for linked-in components.
	SuiteLocal = Suite{Transport: "inproc", DataRep: "packed", Control: "raw"}

	// The *-Net variants are the same protocol suites deployed over real
	// sockets, used by the cmd/ daemons.
	SuiteSunRPCNet  = Suite{Transport: "udp-net", DataRep: "xdr", Control: "sunrpc"}
	SuiteCourierNet = Suite{Transport: "tcp-net", DataRep: "courier", Control: "courier"}
	SuiteRawNet     = Suite{Transport: "tcp-net", DataRep: "packed", Control: "raw"}
)

// Bind builds a Binding from a suite and an endpoint.
func (s Suite) Bind(host, addr string, program, version uint32) Binding {
	return Binding{
		Host:      host,
		Addr:      addr,
		Transport: s.Transport,
		DataRep:   s.DataRep,
		Control:   s.Control,
		Program:   program,
		Version:   version,
	}
}
