package nsm

import (
	"context"
	"fmt"
	"strings"

	"hns/internal/bind"
	"hns/internal/cache"
	"hns/internal/clearinghouse"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/qclass"
	"hns/internal/simtime"
)

// The MailRoute NSMs: map a user's name to the host holding their mailbox.
// Mail is one of the HCS core network services built on the HNS (and the
// paper's conclusion mentions pursuing the HNS structure for an electronic
// mail system). The two worlds store mailbox data very differently —
// which is exactly what an NSM absorbs:
//
//   - BIND world: a TXT record "mailhost=<host>" on the user's name;
//     routed via SMTP-style relaying.
//   - Clearinghouse world: the user object's mailboxes property; routed
//     Grapevine-style.

// mailResult is the cached (host, route) pair.
type mailResult struct {
	Host  string
	Route string
}

// MailRoute is the common MailRoute NSM over a per-service lookup
// function.
type MailRoute struct {
	name        string
	nameService string
	cache       *resultCache[mailResult]
	lookup      func(ctx context.Context, individual string) (mailResult, error)
}

// NewBindMailRoute creates the BIND-world MailRoute NSM.
func NewBindMailRoute(name, nameService string, std *bind.StdClient, o Options) *MailRoute {
	return &MailRoute{
		name:        name,
		nameService: nameService,
		cache:       newResultCache[mailResult](o),
		lookup: func(ctx context.Context, individual string) (mailResult, error) {
			rrs, err := std.Lookup(ctx, individual, bind.TypeTXT)
			if err != nil {
				return mailResult{}, err
			}
			for _, rr := range rrs {
				if v, ok := strings.CutPrefix(string(rr.Data), "mailhost="); ok {
					return mailResult{Host: v, Route: "smtp"}, nil
				}
			}
			return mailResult{}, fmt.Errorf("nsm: %s has no mailhost record", individual)
		},
	}
}

// NewCHMailRoute creates the Clearinghouse-world MailRoute NSM.
func NewCHMailRoute(name, nameService string, ch *clearinghouse.Client, o Options) *MailRoute {
	return &MailRoute{
		name:        name,
		nameService: nameService,
		cache:       newResultCache[mailResult](o),
		lookup: func(ctx context.Context, individual string) (mailResult, error) {
			n, err := clearinghouse.ParseName(individual)
			if err != nil {
				return mailResult{}, err
			}
			v, err := ch.Retrieve(ctx, n, clearinghouse.PropMailbox)
			if err != nil {
				return mailResult{}, err
			}
			return mailResult{Host: string(v), Route: "grapevine"}, nil
		},
	}
}

// Name implements NSM.
func (m *MailRoute) Name() string { return m.name }

// QueryClass implements NSM.
func (m *MailRoute) QueryClass() string { return qclass.MailRoute }

// NameService implements NSM.
func (m *MailRoute) NameService() string { return m.nameService }

// Route maps a user's individual name to their mailbox host and routing
// discipline.
func (m *MailRoute) Route(ctx context.Context, individual string) (mailHost, route string, err error) {
	simtime.Charge(ctx, simtime.NSMWork)
	if r, ok := m.cache.get(ctx, individual); ok {
		return r.Host, r.Route, nil
	}
	r, err := m.lookup(ctx, individual)
	if err != nil {
		return "", "", err
	}
	m.cache.put(individual, r)
	return r.Host, r.Route, nil
}

// Server implements NSM.
func (m *MailRoute) Server() *hrpc.Server {
	s := hrpc.NewServer("nsm-"+m.name, qclass.ProgMailRoute, qclass.NSMVersion)
	s.Register(qclass.ProcMailRoute, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		individual, err := args.Items[1].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		host, route, err := m.Route(ctx, individual)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(marshal.Str(host), marshal.Str(route)), nil
	})
	return s
}

// CacheStats exposes the NSM's cache counters.
func (m *MailRoute) CacheStats() cache.Stats { return m.cache.stats() }

// FlushCache empties the NSM's cache.
func (m *MailRoute) FlushCache() { m.cache.purge() }

var _ NSM = (*MailRoute)(nil)
