// Package colocate builds the five client/HNS/NSM colocation arrangements
// of the paper's Table 3.1 and the Import operation measured there.
//
// "Because the HNS accesses its data from other servers..., even the HNS
// can be linked locally. Similarly, the NSMs can be linked with any
// process. ... We call the choice of where the HNS and NSMs are linked for
// each client the colocation arrangement."
//
// The arrangements (brackets mark process/host boundaries):
//
//  1. [Client, HNS, NSMs]        — everything linked into the client
//  2. [Client] [HNS, NSMs]       — a remote agent runs HNS and NSMs
//  3. [HNS] [Client, NSMs]       — remote HNS service, linked NSMs
//  4. [NSMs] [Client, HNS]       — linked HNS, remote NSMs
//  5. [Client] [HNS] [NSMs]      — everything remote
package colocate

import (
	"context"
	"fmt"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
	"hns/internal/world"
)

// Arrangement enumerates Table 3.1's rows.
type Arrangement int

// The five arrangements, in table order.
const (
	ClientHNSNSMs Arrangement = iota + 1 // row 1
	AgentHNSNSMs                         // row 2
	RemoteHNS                            // row 3
	RemoteNSMs                           // row 4
	AllRemote                            // row 5
)

// Arrangements lists all five in table order.
func Arrangements() []Arrangement {
	return []Arrangement{ClientHNSNSMs, AgentHNSNSMs, RemoteHNS, RemoteNSMs, AllRemote}
}

// String implements fmt.Stringer using the paper's bracket notation.
func (a Arrangement) String() string {
	switch a {
	case ClientHNSNSMs:
		return "[Client, HNS, NSMs]"
	case AgentHNSNSMs:
		return "[Client] [HNS, NSMs]"
	case RemoteHNS:
		return "[HNS] [Client, NSMs]"
	case RemoteNSMs:
		return "[NSMs] [Client, HNS]"
	case AllRemote:
		return "[Client] [HNS] [NSMs]"
	default:
		return fmt.Sprintf("arrangement(%d)", int(a))
	}
}

// Importer performs the paper's Import call — bind a named service to an
// HRPC Binding — under one colocation arrangement.
type Importer struct {
	arr Arrangement
	w   *world.World
	rpc *hrpc.Client

	// finder answers FindNSM: a linked *core.HNS or a *core.RemoteHNS.
	finder core.Finder
	// localHNS is set when the finder is linked into this client (rows 1
	// and 4): its cache is the client's HNS cache.
	localHNS *core.HNS
	// localNSMs dispatches NSM calls in-process when NSMs are linked with
	// the client (rows 1 and 3), keyed by the NSM endpoint FindNSM names.
	localNSMs map[string]bindServiceFn

	// agent carries row 2: one remote call that does everything.
	agent hrpc.Binding
	// agentHNS is the agent-side HNS instance (its cache is the "HNS
	// cache" of that arrangement).
	agentHNS *core.HNS

	listeners []transport.Listener
}

type bindServiceFn func(ctx context.Context, service string, program, version uint32, name names.Name) (hrpc.Binding, error)

// hnsServiceAddr is where the remote-HNS arrangements serve the HNS; the
// paper ran it on a separate lightly loaded MicroVAX.
const hnsServiceAddr = "beaver:hns"

// agentAddr is where the row-2 agent lives.
const agentAddr = "beaver:agent"

// New builds an Importer for the arrangement over an existing world. The
// HNS cache mode comes from the world's configuration.
func New(w *world.World, arr Arrangement, cacheMode bind.CacheMode) (*Importer, error) {
	im := &Importer{arr: arr, w: w, rpc: hrpc.NewClient(w.Net)}

	linkNSMs := func() {
		im.localNSMs = map[string]bindServiceFn{
			"june:" + world.PortBindingBind: im.w.BindBindingNSM.BindService,
			"june:" + world.PortBindingCH:   im.w.CHBindingNSM.BindService,
		}
	}
	newHNS := func() *core.HNS {
		return w.NewHNS(core.Config{CacheMode: cacheMode})
	}

	switch arr {
	case ClientHNSNSMs: // row 1: all linked
		im.localHNS = newHNS()
		im.finder = im.localHNS
		linkNSMs()

	case AgentHNSNSMs: // row 2: one remote agent holds HNS + NSMs
		im.agentHNS = newHNS()
		srv, err := newAgentServer(w, im.agentHNS)
		if err != nil {
			return nil, err
		}
		ln, b, err := hrpc.Serve(w.Net, srv, hrpc.SuiteRaw, "beaver", agentAddr)
		if err != nil {
			return nil, err
		}
		im.listeners = append(im.listeners, ln)
		im.agent = b

	case RemoteHNS: // row 3: HNS remote, NSMs linked with client
		h := newHNS()
		ln, b, err := core.ServeHNS(w.Net, h, "beaver", hnsServiceAddr)
		if err != nil {
			return nil, err
		}
		im.listeners = append(im.listeners, ln)
		im.localHNS = h // the remote service's cache is still "the HNS cache"
		im.finder = core.NewRemoteHNS(im.rpc, b)
		linkNSMs()

	case RemoteNSMs: // row 4: HNS linked with client, NSMs remote
		im.localHNS = newHNS()
		im.finder = im.localHNS

	case AllRemote: // row 5: both remote
		h := newHNS()
		ln, b, err := core.ServeHNS(w.Net, h, "beaver", hnsServiceAddr)
		if err != nil {
			return nil, err
		}
		im.listeners = append(im.listeners, ln)
		im.localHNS = h
		im.finder = core.NewRemoteHNS(im.rpc, b)

	default:
		return nil, fmt.Errorf("colocate: unknown arrangement %d", arr)
	}
	return im, nil
}

// Close releases the importer's servers and connections.
func (im *Importer) Close() {
	for _, ln := range im.listeners {
		ln.Close()
	}
	im.listeners = nil
	im.rpc.Close()
}

// Import binds ServiceName on the host the HNS name designates — the
// paper's Import call. hostName is an HNS name whose context tags the
// naming world ("bind!fiji.cs.washington.edu"); Import constructs the
// HRPCBinding context from it, exactly as the paper's Import builds
// "HRPCBinding-BIND" from "BIND!fiji.cs.washington.edu".
func (im *Importer) Import(ctx context.Context, service string, program, version uint32, hostName string) (hrpc.Binding, error) {
	tagged, err := names.Parse(hostName)
	if err != nil {
		return hrpc.Binding{}, err
	}
	name, err := names.New(qclass.HRPCBinding+"-"+tagged.Context, tagged.Individual)
	if err != nil {
		return hrpc.Binding{}, err
	}

	if im.arr == AgentHNSNSMs {
		return callAgent(ctx, im.rpc, im.agent, service, program, version, name)
	}

	nsmB, err := im.finder.FindNSM(ctx, name, qclass.HRPCBinding)
	if err != nil {
		return hrpc.Binding{}, err
	}
	if local, ok := im.localNSMs[nsmB.Addr]; ok {
		// NSM linked with the client: a local procedure call,
		// "effectively zero in the time scale of the other terms".
		return local(ctx, service, program, version, name)
	}
	return nsm.CallBindService(ctx, im.rpc, nsmB, service, program, version, name)
}

// FlushHNSCache empties this arrangement's HNS meta-cache and the linked
// HostAddress NSM caches (the HNS side of the six mappings) — producing
// Table 3.1's column A/B distinction.
func (im *Importer) FlushHNSCache() {
	if im.localHNS != nil {
		im.localHNS.FlushCache()
	}
	if im.agentHNS != nil {
		im.agentHNS.FlushCache()
	}
	im.w.BindHostNSM.FlushCache()
	im.w.CHHostNSM.FlushCache()
}

// FlushNSMCache empties the binding NSMs' caches (the NSM side) —
// producing Table 3.1's column B/C distinction.
func (im *Importer) FlushNSMCache() {
	im.w.BindBindingNSM.FlushCache()
	im.w.CHBindingNSM.FlushCache()
}

// ---- The row-2 agent.

// AgentProgram identifies the client's-agent service.
const (
	AgentProgram uint32 = 300100
	AgentVersion uint32 = 1
)

var procAgentImport = hrpc.Procedure{
	Name: "AgentImport", ID: 1,
	Args: marshal.TStruct(marshal.TString, marshal.TUint32, marshal.TUint32,
		marshal.TString, marshal.TString),
	Ret: marshal.TStruct(marshal.TStruct(
		marshal.TString, marshal.TString, marshal.TString, marshal.TString,
		marshal.TString, marshal.TUint32, marshal.TUint32,
	)),
}

// newAgentServer builds the row-2 agent: a process that links the HNS and
// the NSMs and performs the whole Import on the client's behalf, so "the
// code to be modified with changes to the NSM is well contained".
func newAgentServer(w *world.World, h *core.HNS) (*hrpc.Server, error) {
	localNSMs := map[string]bindServiceFn{
		"june:" + world.PortBindingBind: w.BindBindingNSM.BindService,
		"june:" + world.PortBindingCH:   w.CHBindingNSM.BindService,
	}
	s := hrpc.NewServer("hcs-agent", AgentProgram, AgentVersion)
	s.Register(procAgentImport, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		service, _ := args.Items[0].AsString()
		program, _ := args.Items[1].AsU32()
		version, _ := args.Items[2].AsU32()
		context_, _ := args.Items[3].AsString()
		individual, _ := args.Items[4].AsString()
		name, err := names.New(context_, individual)
		if err != nil {
			return marshal.Value{}, err
		}
		nsmB, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
		if err != nil {
			return marshal.Value{}, err
		}
		impl, ok := localNSMs[nsmB.Addr]
		if !ok {
			return marshal.Value{}, fmt.Errorf("agent: NSM at %s not linked", nsmB.Addr)
		}
		b, err := impl(ctx, service, program, version, name)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(qclass.BindingValue(b)), nil
	})
	return s, nil
}

func callAgent(ctx context.Context, c *hrpc.Client, agent hrpc.Binding,
	service string, program, version uint32, name names.Name) (hrpc.Binding, error) {
	ret, err := c.Call(ctx, agent, procAgentImport, marshal.StructV(
		marshal.Str(service), marshal.U32(program), marshal.U32(version),
		marshal.Str(name.Context), marshal.Str(name.Individual),
	))
	if err != nil {
		return hrpc.Binding{}, err
	}
	return qclass.ValueBinding(ret.Items[0])
}

// ---- Equation (1): the caching-vs-colocation break-even.

// BreakEven computes the paper's equation (1): the additional cache hit
// fraction q a *remote* HNS (or NSM) must achieve over a locally linked
// copy for remote location to win:
//
//	q > C(remote call) / (C(cache miss) - C(cache hit))
func BreakEven(remoteCall, miss, hit time.Duration) float64 {
	denom := miss - hit
	if denom <= 0 {
		return 1
	}
	return float64(remoteCall) / float64(denom)
}

// MeasureImport measures one Import's simulated cost.
func MeasureImport(ctx context.Context, im *Importer, service string, program, version uint32, hostName string) (time.Duration, error) {
	return simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := im.Import(ctx, service, program, version, hostName)
		return err
	})
}
