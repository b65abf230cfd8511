package nsm

import (
	"context"
	"fmt"

	"hns/internal/bind"
	"hns/internal/cache"
	"hns/internal/clearinghouse"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/qclass"
	"hns/internal/simtime"
)

// The HostAddress NSMs: map a host's individual name to a transport
// address. Instances of these are linked directly with the HNS
// (core.HNS.LinkHostResolver) to terminate the FindNSM recursion.

// HostAddr is the common HostAddress NSM: the name-service specifics live
// in the lookup function the constructors install.
type HostAddr struct {
	name        string
	nameService string
	cache       *resultCache[string]
	lookup      func(ctx context.Context, individual string) (string, error)
}

// NewBindHostAddr creates a HostAddress NSM over a BIND standard-interface
// client: the individual name is the host's domain name, and the address
// is its A record.
func NewBindHostAddr(name, nameService string, std *bind.StdClient, o Options) *HostAddr {
	return &HostAddr{
		name:        name,
		nameService: nameService,
		cache:       newResultCache[string](o),
		lookup: func(ctx context.Context, individual string) (string, error) {
			rrs, err := std.Lookup(ctx, individual, bind.TypeA)
			if err != nil {
				return "", err
			}
			if len(rrs) == 0 {
				return "", fmt.Errorf("nsm: no address records for %s", individual)
			}
			return string(rrs[0].Data), nil
		},
	}
}

// NewCHHostAddr creates a HostAddress NSM over a Clearinghouse client: the
// individual name is a three-part CH name, and the address is its
// addressList property.
func NewCHHostAddr(name, nameService string, ch *clearinghouse.Client, o Options) *HostAddr {
	return &HostAddr{
		name:        name,
		nameService: nameService,
		cache:       newResultCache[string](o),
		lookup: func(ctx context.Context, individual string) (string, error) {
			n, err := clearinghouse.ParseName(individual)
			if err != nil {
				return "", err
			}
			v, err := ch.Retrieve(ctx, n, clearinghouse.PropAddress)
			if err != nil {
				return "", err
			}
			return string(v), nil
		},
	}
}

// Name implements NSM.
func (h *HostAddr) Name() string { return h.name }

// QueryClass implements NSM.
func (h *HostAddr) QueryClass() string { return qclass.HostAddress }

// NameService implements NSM.
func (h *HostAddr) NameService() string { return h.nameService }

// ResolveHost translates the individual name of a host to its transport
// address. It satisfies core.HostResolver, so instances can be linked
// directly with the HNS.
func (h *HostAddr) ResolveHost(ctx context.Context, individual string) (string, error) {
	// The NSM's own glue: individual-name → local-name translation and
	// result standardisation. The mapping itself is the identity — the
	// simple case the HNS name syntax was designed to make common.
	simtime.Charge(ctx, simtime.NSMWork)
	if addr, ok := h.cache.get(ctx, individual); ok {
		return addr, nil
	}
	addr, err := h.lookup(ctx, individual)
	if err != nil {
		// Degraded mode: an unreachable name service may be answered
		// from an expired entry within the configured stale grace.
		if stale, ok := h.cache.getStale(ctx, individual, err); ok {
			return stale, nil
		}
		return "", err
	}
	h.cache.put(individual, addr)
	return addr, nil
}

// Server implements NSM, exposing the identical HostAddress interface.
func (h *HostAddr) Server() *hrpc.Server {
	s := hrpc.NewServer("nsm-"+h.name, qclass.ProgHostAddress, qclass.NSMVersion)
	s.Register(qclass.ProcResolveHost, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		individual, err := args.Items[1].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		addr, err := h.ResolveHost(ctx, individual)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(marshal.Str(addr)), nil
	})
	return s
}

// CacheStats exposes the NSM's cache counters.
func (h *HostAddr) CacheStats() cache.Stats { return h.cache.stats() }

// FlushCache empties the NSM's cache (between benchmark phases).
func (h *HostAddr) FlushCache() { h.cache.purge() }

var _ NSM = (*HostAddr)(nil)
