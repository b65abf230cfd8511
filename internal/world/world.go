// Package world constructs the HCS prototype environment: the full set of
// machines, name services, NSMs, and applications the paper's measurements
// ran against, wired over one simulated network.
//
// The layout mirrors Section 3's environment:
//
//	tahoma  — the modified BIND holding the HNS meta-information
//	          (dynamic updates + unspecified-type records, HRPC interface)
//	fiji    — a UNIX host: conventional BIND for cs.washington.edu, a Sun
//	          portmapper, and Sun RPC application services
//	june    — a UNIX host where the (remote) NSMs run
//	xerox   — a Xerox D-machine: the Clearinghouse, Courier services
//
// One call to New stands all of it up; Close tears it down. Examples, the
// benchmark harness, and the colocation builders all start here.
package world

import (
	"context"
	"fmt"
	"time"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// Host name constants for the standard environment.
const (
	HostMeta   = "tahoma.cs.washington.edu"
	HostBind   = "fiji.cs.washington.edu"
	HostNSM    = "june.cs.washington.edu"
	HostXerox  = "xerox-d0:cs:uw" // Clearinghouse three-part name
	BindZone   = "cs.washington.edu"
	MetaZone   = "hns"
	CHDomain   = "cs"
	CHOrg      = "uw"
	NSBind     = "bind-cs"
	NSCH       = "ch-uw"
	CtxBind    = "hrpcbinding-bind"
	CtxCH      = "hrpcbinding-ch"
	CtxHostB   = "hostaddr-bind"
	CtxHostCH  = "hostaddr-ch"
	CtxMailB   = "mail-bind"
	CtxMailCH  = "mail-ch"
	CHReadUser = "hnsreader:cs:uw"
)

// Simulated transport address prefixes for each machine.
const (
	addrMeta  = "tahoma"
	addrBind  = "fiji"
	addrNSM   = "june"
	addrXerox = "xerox"
)

// DesiredService is the Sun RPC application service the Table 3.1 workload
// imports.
const (
	DesiredService     = "desiredservice"
	DesiredProgram     = 400001
	DesiredVersion     = 1
	CourierService     = "fileserver:cs:uw"
	CourierProgram     = 400100
	CourierVersion     = 1
	GatewayHost        = "gateway.cs.washington.edu"
	MailUserBind       = "schwartz.cs.washington.edu"
	MailUserCH         = "notkin:cs:uw"
	MailHostBind       = "june.cs.washington.edu"
	MailHostCH         = "mailsrv:cs:uw"
	desiredServicePort = "svc-desired"
)

// Config tunes the environment.
type Config struct {
	// Clock drives cache expiry everywhere; nil means real time.
	Clock simtime.Clock
	// CacheMode selects the entry form for the HNS meta-cache and every
	// NSM cache (Table 3.2 modes).
	CacheMode bind.CacheMode
}

// World is the running environment.
type World struct {
	Clock simtime.Clock
	Net   *transport.Network
	RPC   *hrpc.Client

	// Name services.
	MetaServer *bind.Server
	MetaHRPC   hrpc.Binding
	BindServer *bind.Server
	CHServer   *clearinghouse.Server
	CHBinding  hrpc.Binding

	// Per-host portmappers.
	Portmappers map[string]*hrpc.Portmapper

	// The NSMs (also reachable remotely at their registered addresses).
	BindBindingNSM *nsm.BindBinding
	CHBindingNSM   *nsm.CHBinding
	BindHostNSM    *nsm.HostAddr
	CHHostNSM      *nsm.HostAddr
	BindMailNSM    *nsm.MailRoute
	CHMailNSM      *nsm.MailRoute

	// HNS is the reference local instance (linked hostaddr NSMs, caches
	// per Config).
	HNS *core.HNS

	cfg       Config
	listeners []transport.Listener
	services  []*echoService
}

type echoService struct {
	name    string
	binding hrpc.Binding
}

// New stands up the full environment.
func New(cfg Config) (*World, error) {
	w := &World{
		Clock:       cfg.Clock,
		Net:         transport.NewNetwork(),
		Portmappers: make(map[string]*hrpc.Portmapper),
		cfg:         cfg,
	}
	w.RPC = hrpc.NewClient(w.Net)

	if err := w.buildMetaBind(); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.buildBindWorld(); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.buildCHWorld(); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.buildNSMs(); err != nil {
		w.Close()
		return nil, err
	}
	w.HNS = w.NewHNS(core.Config{CacheMode: cfg.CacheMode})
	if err := w.register(); err != nil {
		w.Close()
		return nil, err
	}
	if err := w.buildServices(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// Close tears down every listener.
func (w *World) Close() {
	for _, ln := range w.listeners {
		ln.Close()
	}
	w.listeners = nil
	if w.RPC != nil {
		w.RPC.Close()
	}
}

func (w *World) listen(ln transport.Listener, err error) error {
	if err != nil {
		return err
	}
	w.listeners = append(w.listeners, ln)
	return nil
}

// buildMetaBind stands up the modified BIND on tahoma with the (empty,
// updatable) meta zone.
func (w *World) buildMetaBind() error {
	w.MetaServer = bind.NewServer("tahoma")
	z, err := bind.NewZone(MetaZone, true)
	if err != nil {
		return err
	}
	if err := w.MetaServer.AddZone(z); err != nil {
		return err
	}
	ln, b, err := w.MetaServer.ServeHRPC(w.Net, MetaPrimary)
	if err != nil {
		return err
	}
	w.listeners = append(w.listeners, ln)
	w.MetaHRPC = b
	return nil
}

// buildBindWorld stands up fiji: the conventional BIND, the portmapper,
// and the zone data.
func (w *World) buildBindWorld() error {
	w.BindServer = bind.NewServer("fiji")
	z, err := bind.NewZone(BindZone, true)
	if err != nil {
		return err
	}
	if err := w.BindServer.AddZone(z); err != nil {
		return err
	}
	records := []bind.RR{
		bind.A(HostBind, addrBind, 600),
		bind.A(HostNSM, addrNSM, 600),
		bind.A(HostMeta, addrMeta, 600),
		bind.TXT(MailUserBind, "mailhost="+MailHostBind, 600),
		bind.HINFO(HostBind, "MicroVAX-II/Unix", 600),
		bind.HINFO(HostNSM, "MicroVAX-II/Unix", 600),
	}
	// GatewayHost carries six address records — "separate resource
	// records are intended to store alternate data for one name, e.g.,
	// multiple network addresses for gateway hosts" — the Table 3.2
	// six-record case.
	for i := 0; i < 6; i++ {
		records = append(records, bind.A(GatewayHost, fmt.Sprintf("gw-if%d", i), 600))
	}
	if err := w.BindServer.LoadRecords(records); err != nil {
		return err
	}
	if err := w.listen(w.BindServer.ServeStd(w.Net, "udp", addrBind+":53")); err != nil {
		return err
	}
	// fiji's HRPC BIND interface (used when the workload needs updates
	// against application data, e.g. the evolving-system example).
	ln, _, err := w.BindServer.ServeHRPC(w.Net, addrBind+":bind-hrpc")
	if err != nil {
		return err
	}
	w.listeners = append(w.listeners, ln)

	for _, host := range []string{addrBind, addrNSM, addrMeta} {
		pm := hrpc.NewPortmapper(host)
		ln, _, err := hrpc.ServePortmap(w.Net, pm)
		if err != nil {
			return err
		}
		w.listeners = append(w.listeners, ln)
		w.Portmappers[host] = pm
	}
	return nil
}

// buildCHWorld stands up the Clearinghouse on the Xerox D-machine.
func (w *World) buildCHWorld() error {
	auth := clearinghouse.NewAuthenticator(false)
	auth.AddPrincipal(CHReadUser, "hcs")
	store := clearinghouse.NewStore()
	w.CHServer = clearinghouse.NewServer("xerox", store, auth)
	ln, b, err := w.CHServer.Serve(w.Net, addrXerox+":ch")
	if err != nil {
		return err
	}
	w.listeners = append(w.listeners, ln)
	w.CHBinding = b

	// Seed the Clearinghouse database directly (these objects belong to
	// the Xerox world's own administration, not to the HNS).
	ctx := context.Background()
	seed := w.CHClient()
	if err := seed.AddItem(ctx, clearinghouse.MustName(HostXerox),
		clearinghouse.PropAddress, []byte(addrXerox)); err != nil {
		return err
	}
	if err := seed.AddItem(ctx, clearinghouse.MustName(MailUserCH),
		clearinghouse.PropMailbox, []byte(MailHostCH)); err != nil {
		return err
	}
	return nil
}

// CHClient returns an authenticated Clearinghouse client.
func (w *World) CHClient() *clearinghouse.Client {
	return clearinghouse.NewClient(w.RPC, w.CHBinding,
		clearinghouse.NewCredentials(CHReadUser, "hcs"))
}

// BindStdClient returns a standard-interface client for fiji's BIND.
func (w *World) BindStdClient() *bind.StdClient {
	return bind.NewStdClient(w.Net, "udp", addrBind+":53")
}

// MetaHRPCClient returns a client for the meta BIND's HRPC interface. Per
// the Raw suite discipline, it dials per call.
func (w *World) MetaHRPCClient() *bind.HRPCClient {
	c := hrpc.NewClient(w.Net)
	c.FreshConn = true
	return bind.NewHRPCClient(c, w.MetaHRPC)
}

// NSMOptions returns the cache options NSMs in this world use.
func (w *World) NSMOptions() nsm.Options {
	return nsm.Options{CacheMode: w.cfg.CacheMode, Clock: w.Clock}
}

// buildNSMs constructs the six NSMs and serves each remotely on june.
func (w *World) buildNSMs() error {
	o := w.NSMOptions()
	w.BindHostNSM = nsm.NewBindHostAddr("hostaddr-bind-1", NSBind, w.BindStdClient(), o)
	w.CHHostNSM = nsm.NewCHHostAddr("hostaddr-ch-1", NSCH, w.CHClient(), o)
	w.BindBindingNSM = nsm.NewBindBinding("binding-bind-1", NSBind, w.BindStdClient(), w.RPC, o)
	w.CHBindingNSM = nsm.NewCHBinding("binding-ch-1", NSCH, w.CHClient(), w.RPC, o)
	w.BindMailNSM = nsm.NewBindMailRoute("mail-bind-1", NSBind, w.BindStdClient(), o)
	w.CHMailNSM = nsm.NewCHMailRoute("mail-ch-1", NSCH, w.CHClient(), o)

	// Remote deployments: BIND-world NSMs speak Sun RPC, CH-world NSMs
	// speak Courier — each world's native suite.
	serve := func(s *hrpc.Server, suite hrpc.Suite, port string) error {
		ln, _, err := hrpc.Serve(w.Net, s, suite, HostNSM, addrNSM+":"+port)
		if err != nil {
			return err
		}
		w.listeners = append(w.listeners, ln)
		return nil
	}
	for _, d := range []struct {
		srv   *hrpc.Server
		suite hrpc.Suite
		port  string
	}{
		{w.BindHostNSM.Server(), hrpc.SuiteSunRPC, PortHostBind},
		{w.CHHostNSM.Server(), hrpc.SuiteCourier, PortHostCH},
		{w.BindBindingNSM.Server(), hrpc.SuiteSunRPC, PortBindingBind},
		{w.CHBindingNSM.Server(), hrpc.SuiteCourier, PortBindingCH},
		{w.BindMailNSM.Server(), hrpc.SuiteSunRPC, PortMailBind},
		{w.CHMailNSM.Server(), hrpc.SuiteCourier, PortMailCH},
	} {
		if err := serve(d.srv, d.suite, d.port); err != nil {
			return err
		}
	}
	return nil
}

// NSM port suffixes on june.
const (
	PortHostBind    = "nsm-hostaddr-bind"
	PortHostCH      = "nsm-hostaddr-ch"
	PortBindingBind = "nsm-binding-bind"
	PortBindingCH   = "nsm-binding-ch"
	PortMailBind    = "nsm-mail-bind"
	PortMailCH      = "nsm-mail-ch"
)

// NewHNS builds an HNS instance over the meta BIND, with both HostAddress
// NSMs linked in (the standard arrangement). cfg's MetaZone and Clock are
// filled from the world when unset.
func (w *World) NewHNS(cfg core.Config) *core.HNS {
	if cfg.MetaZone == "" {
		cfg.MetaZone = MetaZone
	}
	if cfg.Clock == nil {
		cfg.Clock = w.Clock
	}
	if cfg.RPC == nil {
		cfg.RPC = w.RPC
	}
	h := core.New(w.MetaHRPCClient(), cfg)
	h.LinkHostResolver(NSBind, w.BindHostNSM)
	h.LinkHostResolver(NSCH, w.CHHostNSM)
	return h
}

// register writes the HNS meta-information: name services, contexts, and
// NSM registrations.
func (w *World) register() error {
	ctx := context.Background()
	h := w.HNS
	if err := h.RegisterNameService(ctx, NSBind, "bind"); err != nil {
		return err
	}
	if err := h.RegisterNameService(ctx, NSCH, "clearinghouse"); err != nil {
		return err
	}
	for c, ns := range map[string]string{
		CtxBind: NSBind, CtxHostB: NSBind, CtxMailB: NSBind,
		CtxCH: NSCH, CtxHostCH: NSCH, CtxMailCH: NSCH,
	} {
		if err := h.RegisterContext(ctx, c, ns); err != nil {
			return err
		}
	}
	regs := []core.NSMInfo{
		{Name: "hostaddr-bind-1", NameService: NSBind, QueryClass: qclass.HostAddress,
			Host: HostNSM, HostContext: CtxHostB, Port: PortHostBind, Suite: hrpc.SuiteSunRPC},
		{Name: "hostaddr-ch-1", NameService: NSCH, QueryClass: qclass.HostAddress,
			Host: HostNSM, HostContext: CtxHostB, Port: PortHostCH, Suite: hrpc.SuiteCourier},
		{Name: "binding-bind-1", NameService: NSBind, QueryClass: qclass.HRPCBinding,
			Host: HostNSM, HostContext: CtxHostB, Port: PortBindingBind, Suite: hrpc.SuiteSunRPC},
		{Name: "binding-ch-1", NameService: NSCH, QueryClass: qclass.HRPCBinding,
			Host: HostNSM, HostContext: CtxHostB, Port: PortBindingCH, Suite: hrpc.SuiteCourier},
		{Name: "mail-bind-1", NameService: NSBind, QueryClass: qclass.MailRoute,
			Host: HostNSM, HostContext: CtxHostB, Port: PortMailBind, Suite: hrpc.SuiteSunRPC},
		{Name: "mail-ch-1", NameService: NSCH, QueryClass: qclass.MailRoute,
			Host: HostNSM, HostContext: CtxHostB, Port: PortMailCH, Suite: hrpc.SuiteCourier},
	}
	for _, r := range regs {
		if err := h.RegisterNSM(ctx, r); err != nil {
			return err
		}
	}
	return nil
}

// buildServices stands up the application servers the workloads bind to.
func (w *World) buildServices() error {
	// The Sun RPC service on fiji that Table 3.1 imports.
	if _, err := w.AddSunService(addrBind, DesiredService, DesiredProgram, DesiredVersion); err != nil {
		return err
	}
	// The Courier service registered in the Clearinghouse.
	b, err := w.addEchoServer(hrpc.SuiteCourier, "xerox-d0", addrXerox+":fs", CourierProgram, CourierVersion)
	if err != nil {
		return err
	}
	return w.CHClient().AddItem(context.Background(),
		clearinghouse.MustName(CourierService), clearinghouse.PropBinding,
		[]byte(qclass.FormatBinding(b)))
}

// AddSunService starts a Sun RPC echo service on hostPrefix and registers
// it with that host's portmapper.
func (w *World) AddSunService(hostPrefix, name string, program, version uint32) (hrpc.Binding, error) {
	pm := w.Portmappers[hostPrefix]
	if pm == nil {
		return hrpc.Binding{}, fmt.Errorf("world: no portmapper on %s", hostPrefix)
	}
	addr := fmt.Sprintf("%s:svc-%d", hostPrefix, program)
	if name == DesiredService {
		addr = hostPrefix + ":" + desiredServicePort
	}
	b, err := w.addEchoServer(hrpc.SuiteSunRPC, hostPrefix, addr, program, version)
	if err != nil {
		return hrpc.Binding{}, err
	}
	pm.Set(program, version, "udp", b.Addr)
	return b, nil
}

// EchoProc is the single procedure the demo application services export.
var EchoProc = hrpc.Procedure{
	Name: "Echo", ID: 1,
	Args: marshal.TStruct(marshal.TString),
	Ret:  marshal.TStruct(marshal.TString),
}

// EchoArgs builds the argument record for EchoProc.
func EchoArgs(s string) marshal.Value { return marshal.StructV(marshal.Str(s)) }

func (w *World) addEchoServer(suite hrpc.Suite, host, addr string, program, version uint32) (hrpc.Binding, error) {
	s := hrpc.NewServer(fmt.Sprintf("svc-%d@%s", program, host), program, version)
	s.Register(EchoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return args, nil
	})
	ln, b, err := hrpc.Serve(w.Net, s, suite, host, addr)
	if err != nil {
		return hrpc.Binding{}, err
	}
	w.listeners = append(w.listeners, ln)
	w.services = append(w.services, &echoService{name: addr, binding: b})
	return b, nil
}

// DesiredServiceName is the HNS name of the Table 3.1 import target.
func DesiredServiceName() names.Name {
	return names.Must(CtxBind, HostBind)
}

// CourierServiceName is the HNS name of the Clearinghouse-world service.
func CourierServiceName() names.Name {
	return names.Must(CtxCH, CourierService)
}

// Synthetic system types, used by the scaling and workload experiments:
// each is a fresh name service (its own BIND zone) with one host, a
// HostAddress NSM served on june, and the three HNS registrations.

// SyntheticNS returns the name-service name of synthetic type i.
func SyntheticNS(i int) string { return fmt.Sprintf("ns-type%d", i) }

// SyntheticContext returns the HostAddress context of synthetic type i.
func SyntheticContext(i int) string { return fmt.Sprintf("hostaddr-type%d", i) }

// SyntheticHost returns the one registered host of synthetic type i.
func SyntheticHost(i int) string { return fmt.Sprintf("host.type%d.lab", i) }

// AddSyntheticType integrates synthetic system type i into the federation
// and returns the simulated cost of the HNS-visible part (the three
// registrations). Building the type's own name service and NSM is
// out-of-band setup.
func (w *World) AddSyntheticType(ctx context.Context, i int) (time.Duration, error) {
	srv := bind.NewServer(fmt.Sprintf("type%d", i))
	z, err := bind.NewZone(fmt.Sprintf("type%d.lab", i), true)
	if err != nil {
		return 0, err
	}
	if err := srv.AddZone(z); err != nil {
		return 0, err
	}
	if err := z.Add(bind.A(SyntheticHost(i), fmt.Sprintf("type%d", i), 600)); err != nil {
		return 0, err
	}
	stdAddr := fmt.Sprintf("type%d:53", i)
	stdLn, err := srv.ServeStd(w.Net, "udp", stdAddr)
	if err != nil {
		return 0, err
	}
	w.listeners = append(w.listeners, stdLn)

	std := bind.NewStdClient(w.Net, "udp", stdAddr)
	hostNSM := nsm.NewBindHostAddr(fmt.Sprintf("hostaddr-type%d-1", i), SyntheticNS(i), std, w.NSMOptions())
	nsmPort := fmt.Sprintf("nsm-type%d", i)
	nsmLn, _, err := hrpc.Serve(w.Net, hostNSM.Server(), hrpc.SuiteRaw, HostNSM, addrNSM+":"+nsmPort)
	if err != nil {
		return 0, err
	}
	w.listeners = append(w.listeners, nsmLn)
	w.HNS.LinkHostResolver(SyntheticNS(i), hostNSM)

	return simtime.Measure(ctx, func(ctx context.Context) error {
		if err := w.HNS.RegisterNameService(ctx, SyntheticNS(i), "synthetic"); err != nil {
			return err
		}
		if err := w.HNS.RegisterContext(ctx, SyntheticContext(i), SyntheticNS(i)); err != nil {
			return err
		}
		return w.HNS.RegisterNSM(ctx, core.NSMInfo{
			Name: fmt.Sprintf("hostaddr-type%d-1", i), NameService: SyntheticNS(i),
			QueryClass: qclass.HostAddress,
			Host:       HostNSM, HostContext: CtxHostB,
			Port: nsmPort, Suite: hrpc.SuiteRaw,
		})
	})
}
