package hrpc

import (
	"context"
	"fmt"
	"sync"

	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// The Sun portmapper: the per-host program→port registry Sun RPC binding
// consults. The BIND-world binding NSM speaks this protocol to complete a
// binding (host address alone does not identify the server's port).
//
// Program number and procedure numbers follow the ONC convention.
const (
	// PortmapProgram is the portmapper's own program number.
	PortmapProgram = 100000
	// PortmapVersion is the protocol version implemented here.
	PortmapVersion = 2
	// PortmapPort is the well-known address suffix the portmapper listens
	// on (":111" by convention; the simulated transports use
	// "host:portmap").
	PortmapPort = "111"
)

// Portmapper procedures.
var (
	procPmapSet = Procedure{
		Name: "PMAPPROC_SET", ID: 1,
		Args: marshal.TStruct(marshal.TUint32, marshal.TUint32, marshal.TString, marshal.TString),
		Ret:  marshal.TStruct(marshal.TBool),
	}
	procPmapUnset = Procedure{
		Name: "PMAPPROC_UNSET", ID: 2,
		Args: marshal.TStruct(marshal.TUint32, marshal.TUint32),
		Ret:  marshal.TStruct(marshal.TBool),
	}
	procPmapGetPort = Procedure{
		Name: "PMAPPROC_GETPORT", ID: 3,
		Args: marshal.TStruct(marshal.TUint32, marshal.TUint32, marshal.TString),
		Ret:  marshal.TStruct(marshal.TBool, marshal.TString),
	}
	procPmapDump = Procedure{
		Name: "PMAPPROC_DUMP", ID: 4,
		Args: marshal.TStruct(),
		Ret: marshal.TStruct(marshal.TList(marshal.TStruct(
			marshal.TUint32, marshal.TUint32, marshal.TString, marshal.TString,
		))),
	}
)

type pmapKey struct {
	prog, vers uint32
}

type pmapEntry struct {
	proto string
	addr  string
}

// Portmapper is one host's registration table. Servers register their
// concrete endpoint under (program, version); Sun-style binding looks the
// endpoint up before calling.
type Portmapper struct {
	host string

	mu      sync.RWMutex
	entries map[pmapKey]pmapEntry
}

// NewPortmapper creates an empty portmapper for host.
func NewPortmapper(host string) *Portmapper {
	return &Portmapper{host: host, entries: make(map[pmapKey]pmapEntry)}
}

// Set registers (or replaces) the endpoint for program/version. It is both
// the local API and the PMAPPROC_SET implementation.
func (p *Portmapper) Set(prog, vers uint32, proto, addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.entries[pmapKey{prog, vers}] = pmapEntry{proto: proto, addr: addr}
}

// Unset removes the registration, reporting whether one existed.
func (p *Portmapper) Unset(prog, vers uint32) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := pmapKey{prog, vers}
	_, ok := p.entries[k]
	delete(p.entries, k)
	return ok
}

// GetPort looks up the endpoint for program/version.
func (p *Portmapper) GetPort(prog, vers uint32) (proto, addr string, ok bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.entries[pmapKey{prog, vers}]
	return e.proto, e.addr, ok
}

// Server wraps the portmapper in an HRPC server speaking the standard
// portmap procedures.
func (p *Portmapper) Server() *Server {
	s := NewServer("portmap@"+p.host, PortmapProgram, PortmapVersion)
	s.Register(procPmapSet, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		simtime.Charge(ctx, simtime.PortmapLookup)
		prog, _ := args.Items[0].AsU32()
		vers, _ := args.Items[1].AsU32()
		proto, _ := args.Items[2].AsString()
		addr, _ := args.Items[3].AsString()
		p.Set(prog, vers, proto, addr)
		return marshal.StructV(marshal.BoolV(true)), nil
	})
	s.Register(procPmapUnset, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		simtime.Charge(ctx, simtime.PortmapLookup)
		prog, _ := args.Items[0].AsU32()
		vers, _ := args.Items[1].AsU32()
		return marshal.StructV(marshal.BoolV(p.Unset(prog, vers))), nil
	})
	s.Register(procPmapGetPort, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		simtime.Charge(ctx, simtime.PortmapLookup)
		prog, _ := args.Items[0].AsU32()
		vers, _ := args.Items[1].AsU32()
		_, addr, ok := p.GetPort(prog, vers)
		return marshal.StructV(marshal.BoolV(ok), marshal.Str(addr)), nil
	})
	s.Register(procPmapDump, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		simtime.Charge(ctx, simtime.PortmapLookup)
		p.mu.RLock()
		defer p.mu.RUnlock()
		items := make([]marshal.Value, 0, len(p.entries))
		for k, e := range p.entries {
			items = append(items, marshal.StructV(
				marshal.U32(k.prog), marshal.U32(k.vers),
				marshal.Str(e.proto), marshal.Str(e.addr),
			))
		}
		return marshal.StructV(marshal.ListV(items...)), nil
	})
	return s
}

// ServePortmap starts the portmapper at its well-known address
// ("<host>:portmap") over the Sun RPC suite and returns its binding.
func ServePortmap(net *transport.Network, p *Portmapper) (transport.Listener, Binding, error) {
	return Serve(net, p.Server(), SuiteSunRPC, p.host, p.host+":portmap")
}

// PortmapBinding returns the well-known binding for host's portmapper on
// the simulated network.
func PortmapBinding(host string) Binding {
	return SuiteSunRPC.Bind(host, host+":portmap", PortmapProgram, PortmapVersion)
}

// GetPortCall asks the portmapper bound by pm for program/version's
// endpoint.
func GetPortCall(ctx context.Context, c *Client, pm Binding, prog, vers uint32) (string, error) {
	ret, err := c.Call(ctx, pm, procPmapGetPort, marshal.StructV(
		marshal.U32(prog), marshal.U32(vers), marshal.Str("udp"),
	))
	if err != nil {
		return "", err
	}
	ok, _ := ret.Items[0].AsBool()
	if !ok {
		return "", fmt.Errorf("hrpc: portmap %s: program %d.%d not registered", pm.Addr, prog, vers)
	}
	addr, _ := ret.Items[1].AsString()
	return addr, nil
}

// SetCall registers program/version→addr with the portmapper bound by pm.
func SetCall(ctx context.Context, c *Client, pm Binding, prog, vers uint32, proto, addr string) error {
	_, err := c.Call(ctx, pm, procPmapSet, marshal.StructV(
		marshal.U32(prog), marshal.U32(vers), marshal.Str(proto), marshal.Str(addr),
	))
	return err
}

// NullCall pings procedure 0 of the server bound by b — the liveness probe
// Sun-style binding performs before handing a binding to the client.
func NullCall(ctx context.Context, c *Client, b Binding) error {
	_, err := c.Call(ctx, b, NullProc, marshal.StructV())
	return err
}
