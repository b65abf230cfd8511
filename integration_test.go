// Real-socket integration: the federation — meta BIND, application BIND,
// Clearinghouse, NSMs, HNS service — deployed over actual TCP/UDP sockets
// on localhost (the same wiring the cmd/ daemons use), exercised end to
// end.
package hns_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// portOf extracts the port part of a host:port address.
func portOf(t *testing.T, addr string) string {
	t.Helper()
	i := strings.LastIndexByte(addr, ':')
	if i < 0 {
		t.Fatalf("address %q has no port", addr)
	}
	return addr[i+1:]
}

// netFederation is an all-real-sockets deployment.
type netFederation struct {
	net   *transport.Network
	rpc   *hrpc.Client
	hns   *core.HNS
	hnsB  hrpc.Binding
	metaB hrpc.Binding
	reg   *metrics.Registry // the HNS's series, its meta client's and f.rpc's
	meta  *meterSpyMeta     // the HNS's meta client
}

// meterSpyMeta is the HNS's meta client, counting the lookups that reach
// it and those that arrive with a simtime meter on their ctx.
type meterSpyMeta struct {
	*bind.HRPCClient
	lookups, metered atomic.Int64
}

func (m *meterSpyMeta) note(ctx context.Context) {
	m.lookups.Add(1)
	if simtime.From(ctx) != nil {
		m.metered.Add(1)
	}
}

func (m *meterSpyMeta) Lookup(ctx context.Context, name string, t bind.RRType) ([]bind.RR, error) {
	m.note(ctx)
	return m.HRPCClient.Lookup(ctx, name, t)
}

func (m *meterSpyMeta) LookupChain(ctx context.Context, name string, t bind.RRType, follow []bind.FollowStep) ([]bind.RR, [][]bind.RR, error) {
	m.note(ctx)
	return m.HRPCClient.LookupChain(ctx, name, t, follow)
}

func newNetFederation(t *testing.T) *netFederation {
	t.Helper()
	net := transport.NewNetwork()
	f := &netFederation{net: net, rpc: hrpc.NewClient(net), reg: metrics.NewRegistry()}
	f.rpc.Metrics = f.reg
	t.Cleanup(func() { f.rpc.Close() })
	ctx := context.Background()

	serve := func(s *hrpc.Server, suite hrpc.Suite) hrpc.Binding {
		t.Helper()
		ln, b, err := hrpc.Serve(net, s, suite, "localhost", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return b
	}

	// Meta BIND (modified: updatable "hns" zone) over real TCP.
	metaSrv := bind.NewServer("tahoma")
	metaZone, err := bind.NewZone("hns", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := metaSrv.AddZone(metaZone); err != nil {
		t.Fatal(err)
	}
	metaB := serve(metaSrv.HRPCServer(), hrpc.SuiteRawNet)
	metaRPC := hrpc.NewClient(net)
	metaRPC.FreshConn = true
	metaRPC.Metrics = f.reg
	f.metaB = metaB
	meta := &meterSpyMeta{HRPCClient: bind.NewHRPCClient(metaRPC, metaB)}
	f.meta = meta

	// Application BIND over real UDP (standard interface).
	appSrv := bind.NewServer("fiji")
	appZone, err := bind.NewZone("cs.washington.edu", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := appSrv.AddZone(appZone); err != nil {
		t.Fatal(err)
	}
	if err := appSrv.LoadRecords([]bind.RR{
		bind.A("fiji.cs.washington.edu", "127.0.0.1", 600),
		bind.A("june.cs.washington.edu", "127.0.0.1", 600),
	}); err != nil {
		t.Fatal(err)
	}
	stdLn, err := appSrv.ServeStd(net, "udp-net", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stdLn.Close() })

	// Clearinghouse over real TCP (Courier).
	auth := clearinghouse.NewAuthenticator(false)
	auth.AddPrincipal("itest:cs:uw", "pw")
	chSrv := clearinghouse.NewServer("xerox", clearinghouse.NewStore(), auth)
	chB := serve(chSrv.HRPCServer(), hrpc.SuiteCourierNet)
	chClient := clearinghouse.NewClient(f.rpc, chB, clearinghouse.NewCredentials("itest:cs:uw", "pw"))

	// HostAddress NSMs served over each world's native real-socket suite.
	std := bind.NewStdClient(net, "udp-net", stdLn.Addr())
	hostNSM := nsm.NewBindHostAddr("hostaddr-bind-1", "bind-cs", std, nsm.Options{})
	hostB := serve(hostNSM.Server(), hrpc.SuiteSunRPCNet)
	chHostNSM := nsm.NewCHHostAddr("hostaddr-ch-1", "ch-uw", chClient, nsm.Options{})
	chHostB := serve(chHostNSM.Server(), hrpc.SuiteCourierNet)

	// The HNS, served over real TCP.
	h := core.New(meta, core.Config{MetaZone: "hns", RPC: f.rpc, Metrics: f.reg})
	h.LinkHostResolver("bind-cs", hostNSM)
	h.LinkHostResolver("ch-uw", chHostNSM)
	f.hns = h
	f.hnsB = serve(core.NewHNSServer(h, "hns@itest"), hrpc.SuiteRawNet)

	// Registrations. On real sockets the NSM record's host resolves to
	// "127.0.0.1" and the port field carries the kernel-assigned port.
	for _, step := range []func() error{
		func() error { return h.RegisterNameService(ctx, "bind-cs", "bind") },
		func() error { return h.RegisterNameService(ctx, "ch-uw", "clearinghouse") },
		func() error { return h.RegisterContext(ctx, "hostaddr-bind", "bind-cs") },
		func() error { return h.RegisterContext(ctx, "hostaddr-ch", "ch-uw") },
		func() error {
			return h.RegisterNSM(ctx, core.NSMInfo{
				Name: "hostaddr-bind-1", NameService: "bind-cs", QueryClass: qclass.HostAddress,
				Host: "june.cs.washington.edu", HostContext: "hostaddr-bind",
				Port: portOf(t, hostB.Addr), Suite: hrpc.SuiteSunRPCNet,
			})
		},
		func() error {
			return h.RegisterNSM(ctx, core.NSMInfo{
				Name: "hostaddr-ch-1", NameService: "ch-uw", QueryClass: qclass.HostAddress,
				Host: "june.cs.washington.edu", HostContext: "hostaddr-bind",
				Port: portOf(t, chHostB.Addr), Suite: hrpc.SuiteCourierNet,
			})
		},
		func() error {
			return chClient.AddItem(ctx, clearinghouse.MustName("xerox-d0:cs:uw"),
				clearinghouse.PropAddress, []byte("127.0.0.1"))
		},
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

func TestRealSocketsFederation(t *testing.T) {
	f := newNetFederation(t)
	ctx := context.Background()

	// Resolve a BIND-world host through the remote HNS over real TCP,
	// then call the designated NSM over real UDP.
	remote := core.NewRemoteHNS(f.rpc, f.hnsB)
	name := names.Must("hostaddr-bind", "fiji.cs.washington.edu")
	b, err := remote.FindNSM(ctx, name, qclass.HostAddress)
	if err != nil {
		t.Fatal(err)
	}
	if b.Transport != "udp-net" {
		t.Fatalf("NSM binding transport = %q", b.Transport)
	}
	addr, err := nsm.CallResolveHost(ctx, f.rpc, b, name)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1" {
		t.Fatalf("resolved %q", addr)
	}

	// Same through the Clearinghouse world (Courier over real TCP).
	chName := names.Must("hostaddr-ch", "xerox-d0:cs:uw")
	b2, err := remote.FindNSM(ctx, chName, qclass.HostAddress)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Transport != "tcp-net" || b2.Control != "courier" {
		t.Fatalf("CH NSM binding = %v", b2)
	}
	addr2, err := nsm.CallResolveHost(ctx, f.rpc, b2, chName)
	if err != nil {
		t.Fatal(err)
	}
	if addr2 != "127.0.0.1" {
		t.Fatalf("resolved %q", addr2)
	}

	// Warm FindNSM on the server side: verify its cache engaged.
	if _, err := remote.FindNSM(ctx, name, qclass.HostAddress); err != nil {
		t.Fatal(err)
	}
	if st := f.hns.Stats(); st.Cache.Hits == 0 {
		t.Fatalf("server-side HNS cache unused: %+v", st.Cache)
	}

	// An unknown context fails cleanly across the wire.
	if _, err := remote.FindNSM(ctx, names.Must("ghost", "x"), qclass.HostAddress); err == nil {
		t.Fatal("ghost context resolved over real sockets")
	}
}

// TestRealSocketsHistogramsReadWallClock: over real sockets nothing
// installs a simtime meter, so the latency series a daemon exports must
// come off the wall clock — counted and non-zero, where a meter read
// would leave every one of them at 0. (No threshold: only the sign.)
func TestRealSocketsHistogramsReadWallClock(t *testing.T) {
	f := newNetFederation(t)
	remote := core.NewRemoteHNS(f.rpc, f.hnsB)
	name := names.Must("hostaddr-bind", "fiji.cs.washington.edu")
	if _, err := remote.FindNSM(context.Background(), name, qclass.HostAddress); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		metrics.Labels("core_findnsm_ms", "state", "cold"),          // the HNS behind its listener
		metrics.Labels("core_findnsm_step_ms", "step", "mapping1"),  // one meta round trip over TCP
		metrics.Labels("hrpc_client_call_ms", "addr", f.metaB.Addr), // HNS -> meta BIND
		metrics.Labels("hrpc_client_call_ms", "addr", f.hnsB.Addr),  // client -> HNS
	} {
		h := f.reg.Histogram(series)
		if h.Count() == 0 || h.Sum() <= 0 {
			t.Errorf("%s: count %d sum %v, want observations with wall time > 0", series, h.Count(), h.Sum())
		}
	}
	// The meta series is non-zero on simulated stub charges too, so pin
	// its clock directly: the HNS's cache misses reach the RPC meterless.
	if n, m := f.meta.lookups.Load(), f.meta.metered.Load(); n == 0 || m != 0 {
		t.Errorf("%d of %d HNS -> meta lookups carried a simtime meter, want 0 of > 0", m, n)
	}
}
