package core

import (
	"context"
	"fmt"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/transport"
)

// The HNS is "a collection of library routines", so it can be linked with
// any process — including a server process, which is how the remote-HNS
// colocation arrangements of Table 3.1 are built. This file provides that
// wrapping: an HRPC program exposing FindNSM, and a client (RemoteHNS)
// satisfying Finder and ContextFinder.

// HNS service program identification. Version 2 is the program whose
// FindNSM carries (context, query class) and answers a six-field binding;
// a caller of version 1 is refused by version, before any decoding.
const (
	HNSProgram uint32 = 300000
	HNSVersion uint32 = 2
)

// Procedure IDs of the HNS program, exported so fronting services (the
// hnsgw gateway) can classify calls without repeating the IDL.
const (
	ProcFindNSMID      uint32 = 1
	ProcFindNSMBatchID uint32 = 2
)

// procFindNSM is the remote FindNSM interface. Only the NSM reads the
// individual name, so it stays with the caller; Table 3.1 prices the 1987
// messages, which also carried it and the NSM's host name.
//
//	args: {context string, queryClass string}
//	ret:  {nsmBinding}
var procFindNSM = hrpc.Procedure{
	Name: "FindNSM", ID: ProcFindNSMID,
	Args:      marshal.TStruct(marshal.TString, marshal.TString),
	Ret:       marshal.TStruct(nsmBindingType),
	PaperArgs: paperFindArgs,
	PaperRet:  marshal.TStruct(qclass.BindingType),
}

// paperFindArgs is the 1987 FindNSM call, {context, queryClass, individual}.
var paperFindArgs = marshal.TStruct(marshal.TString, marshal.TString, marshal.TString)

// nsmBindingType is the HNS program's binding, {addr, transport, dataRep,
// control, program, version}: what the caller dials, and no host name.
// (The binding NSMs' replies keep qclass's seven-field shape.)
var nsmBindingType = marshal.TStruct(
	marshal.TString, marshal.TString, marshal.TString, marshal.TString,
	marshal.TUint32, marshal.TUint32,
)

// nsmBindingValue encodes b as an nsmBindingType value; b.Host is dropped.
func nsmBindingValue(b hrpc.Binding) marshal.Value {
	return marshal.StructV(marshal.Str(b.Addr), marshal.Str(b.Transport),
		marshal.Str(b.DataRep), marshal.Str(b.Control), marshal.U32(b.Program), marshal.U32(b.Version))
}

// valueNSMBinding decodes an nsmBindingType value.
func valueNSMBinding(v marshal.Value) (hrpc.Binding, error) {
	if v.Kind != marshal.KindStruct {
		return hrpc.Binding{}, fmt.Errorf("hns: bad NSM binding value %v", v)
	}
	return qclass.DialFields(v.Items)
}

// resolveHostArgs builds the argument record for ProcResolveHost calls.
func resolveHostArgs(context, individual string) marshal.Value {
	return marshal.StructV(marshal.Str(context), marshal.Str(individual))
}

// NewFinderServer wraps any ContextFinder in the HNS HRPC program — the
// local library, or another remote HNS (which is how the hnsgw gateway
// fronts a backend: its finder is a RemoteHNS pointing upstream).
func NewFinderServer(f ContextFinder, name string) *hrpc.Server {
	s := hrpc.NewServer(name, HNSProgram, HNSVersion)
	s.Register(procFindNSM, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		cx, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		qc, err := args.Items[1].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		if cx, err = names.CanonicalContext(cx); err != nil {
			return marshal.Value{}, err
		}
		b, err := f.FindContextNSM(ctx, cx, qc)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(nsmBindingValue(b)), nil
	})
	registerFindBatch(s, f)
	return s
}

// NewHNSServer wraps h in its HRPC program.
func NewHNSServer(h *HNS, name string) *hrpc.Server {
	return NewFinderServer(h, name)
}

// ServeHNS binds an HNS server at addr over the Raw suite.
func ServeHNS(net *transport.Network, h *HNS, host, addr string) (transport.Listener, hrpc.Binding, error) {
	return hrpc.Serve(net, NewHNSServer(h, "hns@"+host), hrpc.SuiteRaw, host, addr)
}

// RemoteHNS is a Finder that calls an HNS server over HRPC — the
// "[Client] [HNS ...]" colocation arrangements.
type RemoteHNS struct {
	c *hrpc.Client
	b hrpc.Binding
}

// NewRemoteHNS creates a Finder for the HNS served at b.
func NewRemoteHNS(c *hrpc.Client, b hrpc.Binding) *RemoteHNS {
	return &RemoteHNS{c: c, b: b}
}

// FindNSM implements Finder. A malformed name fails here, moving no frame.
func (r *RemoteHNS) FindNSM(ctx context.Context, name names.Name, queryClass string) (hrpc.Binding, error) {
	if err := name.Validate(); err != nil {
		return hrpc.Binding{}, err
	}
	return r.FindContextNSM(ctx, name.Context, queryClass)
}

// FindContextNSM implements ContextFinder.
func (r *RemoteHNS) FindContextNSM(ctx context.Context, hnsContext, queryClass string) (hrpc.Binding, error) {
	ret, err := r.c.Call(ctx, r.b, procFindNSM, marshal.StructV(marshal.Str(hnsContext), marshal.Str(queryClass)))
	if err != nil {
		return hrpc.Binding{}, err
	}
	return valueNSMBinding(ret.Items[0])
}

var _ Finder = (*HNS)(nil)
var _ Finder = (*RemoteHNS)(nil)
