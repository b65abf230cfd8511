package core

import (
	"context"

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
// satisfying Finder.

// HNS service program identification.
const (
	HNSProgram uint32 = 300000
	HNSVersion uint32 = 1
)

// Procedure IDs of the HNS program, exported so fronting services (the
// hnsgw gateway) can classify calls without repeating the IDL.
const (
	ProcFindNSMID      uint32 = 1
	ProcFindNSMBatchID uint32 = 2
)

// procFindNSM is the remote FindNSM interface.
//
//	args: {context string, individual string, queryClass string}
//	ret:  {binding}
var procFindNSM = hrpc.Procedure{
	Name: "FindNSM", ID: ProcFindNSMID,
	Args: marshal.TStruct(marshal.TString, marshal.TString, marshal.TString),
	Ret: marshal.TStruct(marshal.TStruct(
		marshal.TString, marshal.TString, marshal.TString, marshal.TString,
		marshal.TString, marshal.TUint32, marshal.TUint32,
	)),
}

// resolveHostArgs builds the argument record for ProcResolveHost calls.
func resolveHostArgs(context, individual string) marshal.Value {
	return marshal.StructV(marshal.Str(context), marshal.Str(individual))
}

// NewFinderServer wraps any Finder in the HNS HRPC program — the local
// library, or another remote HNS (which is how the hnsgw gateway fronts
// a backend: its Finder is a RemoteHNS pointing upstream).
func NewFinderServer(f Finder, name string) *hrpc.Server {
	s := hrpc.NewServer(name, HNSProgram, HNSVersion)
	s.Register(procFindNSM, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		context, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		individual, err := args.Items[1].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		qc, err := args.Items[2].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		n, err := names.New(context, individual)
		if err != nil {
			return marshal.Value{}, err
		}
		b, err := f.FindNSM(ctx, n, qc)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(qclass.BindingValue(b)), nil
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

// FindNSM implements Finder.
func (r *RemoteHNS) FindNSM(ctx context.Context, name names.Name, queryClass string) (hrpc.Binding, error) {
	ret, err := r.c.Call(ctx, r.b, procFindNSM, marshal.StructV(
		marshal.Str(name.Context), marshal.Str(name.Individual), marshal.Str(queryClass),
	))
	if err != nil {
		return hrpc.Binding{}, err
	}
	return qclass.ValueBinding(ret.Items[0])
}

var _ Finder = (*HNS)(nil)
var _ Finder = (*RemoteHNS)(nil)
