package nsm

import (
	"context"
	"fmt"

	"hns/internal/bind"
	"hns/internal/cache"
	"hns/internal/clearinghouse"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
)

// The HRPCBinding NSMs — the paper's first application and "stress test".
// Each one "understands exactly how to do binding on the system type from
// which the name came": the information needed is stored in different
// places and each system type has its own binding protocol.
//
// The two concrete binding protocols:
//
//   - Sun/BIND world: look the host up in BIND, ask the host's portmapper
//     for the program's port, ping the server (activation check), hand
//     back a Sun RPC suite binding.
//   - Courier/Clearinghouse world: the Clearinghouse itself stores the
//     server's full binding as a property of its object; retrieve it
//     (authenticated, from disk) and ping.
//
// Clients see neither difference: both serve qclass.ProcBindService.

// BindBinding is the HRPCBinding NSM for the BIND/Sun world.
type BindBinding struct {
	name        string
	nameService string
	std         *bind.StdClient
	rpc         *hrpc.Client
	cache       *resultCache[hrpc.Binding]
	// probe can be disabled for name services whose servers are started
	// statically (no activation protocol).
	probe bool
}

// NewBindBinding creates the BIND-world binding NSM. std looks hosts up in
// BIND; rpc carries the portmapper and activation calls.
func NewBindBinding(name, nameService string, std *bind.StdClient, rpc *hrpc.Client, o Options) *BindBinding {
	return &BindBinding{
		name:        name,
		nameService: nameService,
		std:         std,
		rpc:         rpc,
		cache:       newResultCache[hrpc.Binding](o),
		probe:       true,
	}
}

// Name implements NSM.
func (n *BindBinding) Name() string { return n.name }

// QueryClass implements NSM.
func (n *BindBinding) QueryClass() string { return qclass.HRPCBinding }

// NameService implements NSM.
func (n *BindBinding) NameService() string { return n.nameService }

// BindService executes the Sun-world binding protocol: host lookup,
// portmapper query, activation probe. The completed binding is cached; a
// cached binding skips all three remote steps.
func (n *BindBinding) BindService(ctx context.Context, service string, program, version uint32, name names.Name) (hrpc.Binding, error) {
	simtime.Charge(ctx, simtime.NSMWork)
	// Individual-name → local-name translation (identity for BIND).
	host := name.Individual
	key := fmt.Sprintf("%s|%d|%d", host, program, version)
	if b, ok := n.cache.get(ctx, key); ok {
		return b, nil
	}

	// Step 1: host name → address, via the underlying name service.
	rrs, err := n.std.Lookup(ctx, host, bind.TypeA)
	if err != nil {
		return hrpc.Binding{}, fmt.Errorf("nsm %s: host lookup: %w", n.name, err)
	}
	if len(rrs) == 0 {
		return hrpc.Binding{}, fmt.Errorf("nsm %s: no address for %s", n.name, host)
	}
	hostAddr := string(rrs[0].Data)

	// Step 2: the Sun binding protocol — ask the host's portmapper where
	// the program lives.
	pm := hrpc.PortmapBinding(hostAddr)
	svcAddr, err := hrpc.GetPortCall(ctx, n.rpc, pm, program, version)
	if err != nil {
		return hrpc.Binding{}, fmt.Errorf("nsm %s: portmap for %s (%d.%d): %w", n.name, service, program, version, err)
	}

	b := hrpc.SuiteSunRPC.Bind(host, svcAddr, program, version)

	// Step 3: server activation check — the null-procedure ping plus the
	// cost of confirming/triggering activation.
	if n.probe {
		simtime.Charge(ctx, simtime.ActivationProbe)
		if err := hrpc.NullCall(ctx, n.rpc, b); err != nil {
			return hrpc.Binding{}, fmt.Errorf("nsm %s: %s not responding at %s: %w", n.name, service, svcAddr, err)
		}
	}

	n.cache.put(key, b)
	return b, nil
}

// Server implements NSM.
func (n *BindBinding) Server() *hrpc.Server {
	return bindingServer("nsm-"+n.name, n.BindService)
}

// CacheStats exposes the NSM's cache counters.
func (n *BindBinding) CacheStats() cache.Stats { return n.cache.stats() }

// FlushCache empties the NSM's cache.
func (n *BindBinding) FlushCache() { n.cache.purge() }

// ---- Clearinghouse-world binding NSM.

// CHBinding is the HRPCBinding NSM for the Clearinghouse/Courier world.
type CHBinding struct {
	name        string
	nameService string
	ch          *clearinghouse.Client
	rpc         *hrpc.Client
	cache       *resultCache[hrpc.Binding]
	probe       bool
}

// NewCHBinding creates the Clearinghouse-world binding NSM.
func NewCHBinding(name, nameService string, ch *clearinghouse.Client, rpc *hrpc.Client, o Options) *CHBinding {
	return &CHBinding{
		name:        name,
		nameService: nameService,
		ch:          ch,
		rpc:         rpc,
		cache:       newResultCache[hrpc.Binding](o),
		probe:       true,
	}
}

// Name implements NSM.
func (n *CHBinding) Name() string { return n.name }

// QueryClass implements NSM.
func (n *CHBinding) QueryClass() string { return qclass.HRPCBinding }

// NameService implements NSM.
func (n *CHBinding) NameService() string { return n.nameService }

// BindService executes the Courier-world binding protocol: the service's
// Clearinghouse object holds its complete binding; retrieve and verify it.
// The program/version pair from the stub is checked against the stored
// binding (Courier services advertise theirs, unlike the portmapper
// indirection of the Sun world).
func (n *CHBinding) BindService(ctx context.Context, service string, program, version uint32, name names.Name) (hrpc.Binding, error) {
	simtime.Charge(ctx, simtime.NSMWork)
	key := fmt.Sprintf("%s|%d|%d", name.Individual, program, version)
	if b, ok := n.cache.get(ctx, key); ok {
		return b, nil
	}

	// Individual-name → local-name translation: the individual name is
	// the service object's three-part Clearinghouse name.
	chName, err := clearinghouse.ParseName(name.Individual)
	if err != nil {
		return hrpc.Binding{}, fmt.Errorf("nsm %s: %w", n.name, err)
	}
	raw, err := n.ch.Retrieve(ctx, chName, clearinghouse.PropBinding)
	if err != nil {
		return hrpc.Binding{}, fmt.Errorf("nsm %s: retrieving binding of %s: %w", n.name, chName, err)
	}
	b, err := qclass.ParseBinding(string(raw))
	if err != nil {
		return hrpc.Binding{}, fmt.Errorf("nsm %s: %w", n.name, err)
	}
	if b.Program != program || b.Version != version {
		return hrpc.Binding{}, fmt.Errorf("nsm %s: %s advertises %d.%d, stub wants %d.%d",
			n.name, service, b.Program, b.Version, program, version)
	}
	if n.probe {
		if err := hrpc.NullCall(ctx, n.rpc, b); err != nil {
			return hrpc.Binding{}, fmt.Errorf("nsm %s: %s not responding: %w", n.name, service, err)
		}
	}
	n.cache.put(key, b)
	return b, nil
}

// Server implements NSM.
func (n *CHBinding) Server() *hrpc.Server {
	return bindingServer("nsm-"+n.name, n.BindService)
}

// CacheStats exposes the NSM's cache counters.
func (n *CHBinding) CacheStats() cache.Stats { return n.cache.stats() }

// FlushCache empties the NSM's cache.
func (n *CHBinding) FlushCache() { n.cache.purge() }

// bindingServer wraps a BindService implementation in the identical
// HRPCBinding program. Both binding NSMs share it — the shared interface
// is the whole point.
func bindingServer(serverName string, impl func(ctx context.Context, service string, program, version uint32, name names.Name) (hrpc.Binding, error)) *hrpc.Server {
	s := hrpc.NewServer(serverName, qclass.ProgHRPCBinding, qclass.NSMVersion)
	s.Register(qclass.ProcBindService, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		service, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		program, err := args.Items[1].AsU32()
		if err != nil {
			return marshal.Value{}, err
		}
		version, err := args.Items[2].AsU32()
		if err != nil {
			return marshal.Value{}, err
		}
		context, err := args.Items[3].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		individual, err := args.Items[4].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		hnsName, err := names.New(context, individual)
		if err != nil {
			return marshal.Value{}, err
		}
		b, err := impl(ctx, service, program, version, hnsName)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(qclass.BindingValue(b)), nil
	})
	return s
}

var (
	_ NSM = (*BindBinding)(nil)
	_ NSM = (*CHBinding)(nil)
)
