// Package qclass defines the query classes of the HCS environment and the
// per-class NSM wire interfaces.
//
// "All NSMs for a particular query class have identical client interfaces.
// Thus, when an application makes a query, it can call whichever NSM
// handles that query class for the specified context without having to
// know which name service will ultimately provide the response."
//
// Concretely: every NSM for a query class serves the same HRPC program
// number and procedure signatures, so the binding FindNSM hands back is
// callable without knowing whether a BIND NSM or a Clearinghouse NSM is
// behind it. This package is shared by the HNS core (which must invoke
// host-address NSMs during FindNSM) and the NSM implementations.
package qclass

import (
	"fmt"

	"hns/internal/hrpc"
	"hns/internal/marshal"
)

// The query classes the prototype supports.
const (
	// HRPCBinding maps a service name to an HRPC Binding — the paper's
	// first and stress-test application.
	HRPCBinding = "hrpcbinding"
	// HostAddress maps a host name to a transport address. Instances of
	// its NSMs are linked directly with the HNS to break the FindNSM
	// recursion.
	HostAddress = "hostaddress"
	// MailRoute maps a user name to a mailbox host — the mail application
	// the HCS project built on the HNS.
	MailRoute = "mailroute"
)

// Program numbers: one per query class, shared by every NSM of that class
// (identical interfaces). Versions are all 1.
const (
	ProgHostAddress uint32 = 200001
	ProgHRPCBinding uint32 = 200002
	ProgMailRoute   uint32 = 200003

	NSMVersion uint32 = 1
)

// Program returns the NSM program number for a query class.
func Program(queryClass string) (uint32, error) {
	switch queryClass {
	case HostAddress:
		return ProgHostAddress, nil
	case HRPCBinding:
		return ProgHRPCBinding, nil
	case MailRoute:
		return ProgMailRoute, nil
	default:
		return 0, fmt.Errorf("qclass: unknown query class %q", queryClass)
	}
}

// BindingType is the wire shape of an hrpc.Binding: the binding NSMs'
// reply, and the 1987 HNS reply's binding (see core's FindNSM).
var BindingType = marshal.TStruct(
	marshal.TString, // host
	marshal.TString, // addr
	marshal.TString, // transport
	marshal.TString, // datarep
	marshal.TString, // control
	marshal.TUint32, // program
	marshal.TUint32, // version
)

// BindingValue encodes a binding for the wire.
func BindingValue(b hrpc.Binding) marshal.Value {
	return marshal.StructV(
		marshal.Str(b.Host), marshal.Str(b.Addr),
		marshal.Str(b.Transport), marshal.Str(b.DataRep), marshal.Str(b.Control),
		marshal.U32(b.Program), marshal.U32(b.Version),
	)
}

// ValueBinding decodes a wire binding.
func ValueBinding(v marshal.Value) (hrpc.Binding, error) {
	if v.Kind != marshal.KindStruct || v.Len() != 7 {
		return hrpc.Binding{}, fmt.Errorf("qclass: bad binding value %v", v)
	}
	b, err := DialFields(v.Items[1:])
	if err != nil {
		return hrpc.Binding{}, err
	}
	if b.Host, err = v.Items[0].AsString(); err != nil {
		return hrpc.Binding{}, err
	}
	return b, nil
}

// DialFields decodes the six binding fields after the host, {addr,
// transport, dataRep, control, program, version}: what a caller dials,
// and the whole of the HNS program's binding. It returns the zero
// Binding and an error if one is missing or of the wrong kind.
func DialFields(items []marshal.Value) (b hrpc.Binding, err error) {
	if len(items) != 6 {
		return b, fmt.Errorf("qclass: %d binding fields, want 6", len(items))
	}
	for i, s := range [...]*string{&b.Addr, &b.Transport, &b.DataRep, &b.Control} {
		if *s, err = items[i].AsString(); err != nil {
			return hrpc.Binding{}, err
		}
	}
	if b.Program, err = items[4].AsU32(); err != nil {
		return hrpc.Binding{}, err
	}
	if b.Version, err = items[5].AsU32(); err != nil {
		return hrpc.Binding{}, err
	}
	return b, nil
}

// The identical per-class client interfaces.

// ProcResolveHost is the HostAddress query: translate an HNS name's
// individual part to a transport address.
//
//	args: {context string, individual string}
//	ret:  {address string}
var ProcResolveHost = hrpc.Procedure{
	Name: "ResolveHost", ID: 1,
	Args: marshal.TStruct(marshal.TString, marshal.TString),
	Ret:  marshal.TStruct(marshal.TString),
}

// ProcBindService is the HRPCBinding query, the paper's BindingNSM call:
// complete an HRPC binding for a named service on the host the HNS name
// designates.
//
//	args: {serviceName string, program u32, version u32,
//	       context string, individual string}
//	ret:  {binding}
//
// The program/version pair comes from the importing stub, which — as in
// every Sun RPC system of the era — has them compiled in.
var ProcBindService = hrpc.Procedure{
	Name: "BindService", ID: 1,
	Args: marshal.TStruct(marshal.TString, marshal.TUint32, marshal.TUint32,
		marshal.TString, marshal.TString),
	Ret: marshal.TStruct(BindingType),
}

// ProcMailRoute is the MailRoute query: find the mailbox host for a user.
//
//	args: {context string, individual string}
//	ret:  {mailHost string, route string}
var ProcMailRoute = hrpc.Procedure{
	Name: "MailRoute", ID: 1,
	Args: marshal.TStruct(marshal.TString, marshal.TString),
	Ret:  marshal.TStruct(marshal.TString, marshal.TString),
}
