// Package hcs is the application-facing facade of the name service: the
// thin layer an HCS application links to resolve names without caring
// which name service answers.
//
// It packages the invariant two-step of every HNS client — FindNSM for the
// query class, then the query-class call on whichever NSM was designated —
// behind one method per query class. This is deliberately *all* it does:
// the paper's structure puts the real work in the NSMs and the management
// in the HNS, leaving the client glue small enough to embed anywhere.
package hcs

import (
	"context"

	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
)

// Directory resolves HNS names through a Finder (a linked *core.HNS or a
// remote HNS service) and calls the designated NSMs.
type Directory struct {
	finder core.Finder
	rpc    *hrpc.Client
}

// New creates a directory facade.
func New(finder core.Finder, rpc *hrpc.Client) *Directory {
	return &Directory{finder: finder, rpc: rpc}
}

// ResolveHost maps an HNS host name to its transport address
// (the HostAddress query class).
func (d *Directory) ResolveHost(ctx context.Context, name names.Name) (string, error) {
	b, err := d.finder.FindNSM(ctx, name, qclass.HostAddress)
	if err != nil {
		return "", err
	}
	return nsm.CallResolveHost(ctx, d.rpc, b, name)
}

// Import binds a named service on the host an HNS name designates (the
// HRPCBinding query class) — the paper's Import call. program and version
// come from the importing stub.
func (d *Directory) Import(ctx context.Context, service string, program, version uint32, name names.Name) (hrpc.Binding, error) {
	b, err := d.finder.FindNSM(ctx, name, qclass.HRPCBinding)
	if err != nil {
		return hrpc.Binding{}, err
	}
	return nsm.CallBindService(ctx, d.rpc, b, service, program, version, name)
}

// MailRoute maps a user's HNS name to their mailbox host and routing
// discipline (the MailRoute query class).
func (d *Directory) MailRoute(ctx context.Context, name names.Name) (mailHost, route string, err error) {
	b, err := d.finder.FindNSM(ctx, name, qclass.MailRoute)
	if err != nil {
		return "", "", err
	}
	return nsm.CallMailRoute(ctx, d.rpc, b, name)
}
