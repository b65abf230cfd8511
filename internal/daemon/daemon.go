// Package daemon wires the shipped daemons, bindd, hnsd, nsmd, hnsgw,
// chd and hcsd, out of the library routines: one constructor each, so a
// test starts exactly the arrangement a main runs. A constructor takes
// its daemon's flags as a Config, listens on real sockets and returns a
// *Daemon; Run is the loop every main shares.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hns/internal/admission"
	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/core"
	"hns/internal/filing"
	"hns/internal/gateway"
	"hns/internal/hrpc"
	"hns/internal/mail"
	"hns/internal/metrics"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/rexec"
	"hns/internal/store"
	"hns/internal/transport"
)

// List is a repeatable string flag: each use appends one value.
type List []string

func (l *List) String() string     { return strings.Join(*l, ",") }
func (l *List) Set(v string) error { *l = append(*l, v); return nil }

// Daemon is one started daemon.
type Daemon struct {
	// HNS is hnsd's resolver; nil in the other daemons.
	HNS *core.HNS
	// Services is hcsd's service addresses by name ("exec", "filing",
	// "mailbox"); nil in the other daemons.
	Services map[string]string

	addr, std string
	undo      []func() error // start-up's steps undone, last first
}

// Addr is the address of the daemon's service: bindd's HRPC interface,
// hnsd's FindNSM, nsmd's NSM, hnsgw's front door, chd's Clearinghouse;
// "" for hcsd, whose services are in Services.
func (d *Daemon) Addr() string { return d.addr }

// StdAddr is bindd's standard-interface address, "" when it has none.
func (d *Daemon) StdAddr() string { return d.std }

// Close undoes start-up last step first: the listeners close, a mirror
// stops following and a subscriber unsubscribes, then a store closes or
// chd saves its snapshot.
func (d *Daemon) Close() error {
	var errs []error
	for i := len(d.undo) - 1; i >= 0; i-- {
		errs = append(errs, d.undo[i]())
	}
	d.undo = nil
	return errors.Join(errs...)
}

// start runs up on a new Daemon, closing what it started if it fails.
func start(up func(d *Daemon) error) (*Daemon, error) {
	d := &Daemon{}
	if err := up(d); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// serve listens for s on addr over suite; the daemon's Addr is its own.
func (d *Daemon) serve(net *transport.Network, s *hrpc.Server, suite hrpc.Suite, host, addr string) (hrpc.Binding, error) {
	ln, b, err := hrpc.Serve(net, s, suite, host, addr)
	if err != nil {
		return b, fmt.Errorf("listen: %w", err)
	}
	d.addr, d.undo = b.Addr, append(d.undo, ln.Close)
	return b, nil
}

// chClient is a client of the Clearinghouse at addr.
func chClient(rpc *hrpc.Client, addr, principal, secret string) *clearinghouse.Client {
	b := hrpc.SuiteCourierNet.Bind(addr, addr, clearinghouse.Program, clearinghouse.Version)
	return clearinghouse.NewClient(rpc, b, clearinghouse.NewCredentials(principal, secret))
}

// Run is a daemon's main: serve /metrics and /debug/hns on metricsAddr
// (when set), then start the daemon and wait for SIGINT or SIGTERM; then
// close it. A failed start exits 1.
func Run(name, metricsAddr string, up func() (*Daemon, error)) {
	if metricsAddr != "" {
		msrv, err := metrics.Serve(metricsAddr, metrics.Default())
		if err != nil {
			log.Fatalf("%s: metrics listen: %v", name, err)
		}
		defer msrv.Close()
		log.Printf("%s: metrics on http://%s/metrics", name, msrv.Addr())
	}
	d, err := up()
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("%s: shutting down", name)
	if err := d.Close(); err != nil {
		log.Printf("%s: %v", name, err)
	}
}

// BinddConfig is bindd's flags, one field each, and the store seam.
type BinddConfig struct {
	Host, HRPC, Std, Metrics, Records, Secondary, DataDir string
	Zones                                                 List
	Update, Push                                          bool
	Refresh                                               time.Duration
	FS                                                    store.FS // when set, the store in place of DataDir's (a test's MemFS)
}

// Bindd starts a BIND server: bind.Boot builds it, crash-safe when it
// has a store, a mirror takes its first transfer and follows its
// primary, and then the push plane and the listeners start.
func Bindd(c BinddConfig) (*Daemon, error) { return start(func(d *Daemon) error { return d.bindd(c) }) }

func (d *Daemon) bindd(c BinddConfig) error {
	if len(c.Zones) == 0 {
		return errors.New("at least one -zone is required")
	}
	if c.Secondary != "" && (c.Update || c.Records != "") {
		return errors.New("-secondary excludes -update and -records (a mirror's contents come from its primary)")
	}
	if c.Secondary != "" && c.Refresh <= 0 {
		return fmt.Errorf("-secondary needs a positive -refresh, got %s", c.Refresh)
	}
	fs := c.FS
	if fs == nil && c.DataDir != "" {
		var err error
		if fs, err = store.DirFS(c.DataDir); err != nil {
			return err
		}
	}
	net := transport.NewNetwork()
	cfg := bind.BootConfig{Host: c.Host, Zones: c.Zones, Update: c.Update, Store: bind.DurableConfig{FS: fs, Name: c.Host},
		Logf: func(format string, args ...any) { log.Printf("bindd: "+format, args...) }}
	if c.Records != "" {
		cfg.Records = func() ([]byte, error) { return os.ReadFile(c.Records) }
	}
	if c.Secondary != "" {
		rpc := hrpc.NewClient(net)
		d.undo = append(d.undo, rpc.Close)
		cfg.Primary = bind.NewHRPCClient(rpc, hrpc.SuiteRawNet.Bind(c.Secondary, c.Secondary, bind.HRPCProgram, bind.HRPCVersion))
	}
	srv, dur, sec, err := bind.Boot(cfg)
	if err != nil {
		return fmt.Errorf("starting with -data-dir %q: %w", c.DataDir, err)
	}
	if dur != nil {
		// No parting checkpoint: the journal past the last one is the
		// history a restart serves deltas from, as after kill -9.
		d.undo = append(d.undo, dur.Close)
		st := dur.Stats()
		log.Printf("bindd: recovered %s in %s (checkpoint lsn %d, %d wal records replayed, %d torn bytes dropped)",
			c.DataDir, st.Elapsed.Round(time.Millisecond), st.SnapshotLSN, st.Replayed, st.TornBytes)
	}
	if sec != nil {
		if _, err := sec.Refresh(context.Background()); err != nil {
			// A dead primary at start-up is survivable: serve the zone as
			// it is and keep trying. That is the point of a mirror.
			log.Printf("bindd: initial transfer from %s failed: %v (retrying every %s)", c.Secondary, err, c.Refresh)
		} else {
			log.Printf("bindd: mirrored %s from %s at serial %d", c.Zones[0], c.Secondary, sec.Serial())
		}
		stop := sec.Follow(c.Refresh, func(moved bool, err error) {
			if err != nil {
				log.Printf("bindd: refresh: %v", err)
			} else if moved {
				log.Printf("bindd: transferred %s at serial %d (%d incremental refreshes so far)",
					c.Zones[0], sec.Serial(), sec.DeltaRefreshes())
			}
		})
		d.undo = append(d.undo, func() error { stop(); return nil })
	}
	if c.Push {
		srv.EnablePush()
		log.Printf("bindd: push plane enabled (NOTIFY fan-out on update; clients may subscribe)")
	}
	b, err := d.serve(net, srv.HRPCServer(), hrpc.SuiteRawNet, c.Host, c.HRPC)
	if err != nil {
		return err
	}
	log.Printf("bindd: %s serving HRPC interface %s, zones %v, updates=%v", c.Host, b, c.Zones, c.Update)
	if c.Std != "" {
		ln, err := srv.ServeStd(net, "udp-net", c.Std)
		if err != nil {
			return fmt.Errorf("std listen: %w", err)
		}
		d.std, d.undo = ln.Addr(), append(d.undo, ln.Close)
		log.Printf("bindd: %s serving standard interface on %s/udp", c.Host, d.std)
	}
	return nil
}

// HnsdConfig is hnsd's flags, one field each.
type HnsdConfig struct {
	Host, Addr, Meta, MetaZone, Metrics string
	ServeStale                          time.Duration
	Subscribe                           bool
	LinkBind, LinkCH, MetaReplica       List
}

// Hnsd starts the HNS as a FindNSM service: a chained meta-cache over the
// meta-BIND (and its replicas), the linked HostAddress NSMs and, with
// Subscribe, push invalidation; then the listener.
func Hnsd(c HnsdConfig) (*Daemon, error) { return start(func(d *Daemon) error { return d.hnsd(c) }) }

func (d *Daemon) hnsd(c HnsdConfig) error {
	net := transport.NewNetwork()
	rpc, metaRPC := hrpc.NewClient(net), hrpc.NewClient(net)
	d.undo = append(d.undo, rpc.Close, metaRPC.Close)
	if len(c.MetaReplica) > 0 {
		metaRPC.SetReplicas(c.Meta, c.MetaReplica...)
		log.Printf("hnsd: meta failover replicas: %s", c.MetaReplica.String())
	}
	meta := bind.NewHRPCClient(metaRPC, hrpc.SuiteRawNet.Bind(c.Meta, c.Meta, bind.HRPCProgram, bind.HRPCVersion))
	h := core.New(meta, core.Config{MetaZone: c.MetaZone, ServeStale: c.ServeStale, ChainMeta: true, RPC: rpc})
	d.HNS = h
	for _, spec := range c.LinkBind {
		ns, stdAddr, ok := strings.Cut(spec, "=")
		if !ok {
			return fmt.Errorf("-link-bind wants ns=addr, got %q", spec)
		}
		std := bind.NewStdClient(net, "udp-net", stdAddr)
		n := nsm.NewBindHostAddr("hostaddr-"+ns, ns, std, nsm.Options{})
		h.LinkHostResolver(ns, n)
		d.undo = append(d.undo, std.Close)
		log.Printf("hnsd: linked BIND HostAddress NSM for %s at %s", ns, stdAddr)
	}
	for _, spec := range c.LinkCH {
		ns, rest, ok := strings.Cut(spec, "=")
		parts := strings.SplitN(rest, ",", 3)
		if !ok || len(parts) != 3 {
			return fmt.Errorf("-link-ch wants ns=addr,principal,secret, got %q", spec)
		}
		n := nsm.NewCHHostAddr("hostaddr-"+ns, ns, chClient(rpc, parts[0], parts[1], parts[2]), nsm.Options{})
		h.LinkHostResolver(ns, n)
		log.Printf("hnsd: linked Clearinghouse HostAddress NSM for %s at %s", ns, parts[0])
	}
	if c.Subscribe {
		h.SubscribeMeta()
		d.undo = append(d.undo, func() error { h.UnsubscribeMeta(); return nil })
		log.Printf("hnsd: subscribed to push invalidation for zone %q", c.MetaZone)
	}
	b, err := d.serve(net, core.NewHNSServer(h, "hns@"+c.Host), hrpc.SuiteRawNet, c.Host, c.Addr)
	if err != nil {
		return err
	}
	log.Printf("hnsd: serving FindNSM %s (meta %s zone %q)", b, c.Meta, c.MetaZone)
	return nil
}

// NsmdConfig is nsmd's flags, one field each.
type NsmdConfig struct {
	Host, Addr, Type, Name, NS, BindStd, CH, CHPrincipal, CHSecret, Metrics string
	ServeStale                                                              time.Duration
}

// nsmArgs is what an NSM is built from; std or ch is set, by its world.
type nsmArgs struct {
	name, ns string
	std      *bind.StdClient
	ch       *clearinghouse.Client
	rpc      *hrpc.Client
	opts     nsm.Options
}

// nsmTypes is nsmd's -type table: each NSM and the native suite of its
// world, Courier for the Clearinghouse's and Sun RPC for BIND's.
var nsmTypes = map[string]struct {
	suite hrpc.Suite
	build func(a nsmArgs) *hrpc.Server
}{
	"binding-bind":  {hrpc.SuiteSunRPCNet, func(a nsmArgs) *hrpc.Server { return nsm.NewBindBinding(a.name, a.ns, a.std, a.rpc, a.opts).Server() }},
	"binding-ch":    {hrpc.SuiteCourierNet, func(a nsmArgs) *hrpc.Server { return nsm.NewCHBinding(a.name, a.ns, a.ch, a.rpc, a.opts).Server() }},
	"hostaddr-bind": {hrpc.SuiteSunRPCNet, func(a nsmArgs) *hrpc.Server { return nsm.NewBindHostAddr(a.name, a.ns, a.std, a.opts).Server() }},
	"hostaddr-ch":   {hrpc.SuiteCourierNet, func(a nsmArgs) *hrpc.Server { return nsm.NewCHHostAddr(a.name, a.ns, a.ch, a.opts).Server() }},
	"mail-bind":     {hrpc.SuiteSunRPCNet, func(a nsmArgs) *hrpc.Server { return nsm.NewBindMailRoute(a.name, a.ns, a.std, a.opts).Server() }},
	"mail-ch":       {hrpc.SuiteCourierNet, func(a nsmArgs) *hrpc.Server { return nsm.NewCHMailRoute(a.name, a.ns, a.ch, a.opts).Server() }},
}

// Nsmd starts one NSM of c.Type over its world's native suite.
func Nsmd(c NsmdConfig) (*Daemon, error) { return start(func(d *Daemon) error { return d.nsmd(c) }) }

func (d *Daemon) nsmd(c NsmdConfig) error {
	t, ok := nsmTypes[c.Type]
	if c.Type == "" || c.NS == "" {
		return errors.New("-type and -ns are required")
	} else if !ok {
		return fmt.Errorf("unknown NSM type %q", c.Type)
	}
	if c.Name == "" {
		c.Name = c.Type + "-1"
	}
	net := transport.NewNetwork()
	a := nsmArgs{name: c.Name, ns: c.NS, rpc: hrpc.NewClient(net), opts: nsm.Options{StaleFor: c.ServeStale}}
	d.undo = append(d.undo, a.rpc.Close)
	switch {
	case t.suite == hrpc.SuiteCourierNet && c.CH == "":
		return fmt.Errorf("-type %s requires -ch (and credentials)", c.Type)
	case t.suite == hrpc.SuiteCourierNet:
		a.ch = chClient(a.rpc, c.CH, c.CHPrincipal, c.CHSecret)
	case c.BindStd == "":
		return fmt.Errorf("-type %s requires -bind-std", c.Type)
	default:
		a.std = bind.NewStdClient(net, "udp-net", c.BindStd)
		d.undo = append(d.undo, a.std.Close)
	}
	b, err := d.serve(net, t.build(a), t.suite, c.Host, c.Addr)
	if err != nil {
		return err
	}
	log.Printf("nsmd: serving %s (%s for %s) at %s", c.Name, c.Type, c.NS, b)
	return nil
}

// HnsgwConfig is hnsgw's flags, one field each.
type HnsgwConfig struct {
	Host, Addr, Metrics string
	Rate                float64
	MaxInflight         int
	Backends            List
}

// Hnsgw starts the admission-controlled front door: a gateway forwarding
// to the first live of c.Backends and, with a rate or an inflight cap,
// shedding batches at three quarters of the cap.
func Hnsgw(c HnsgwConfig) (*Daemon, error) { return start(func(d *Daemon) error { return d.hnsgw(c) }) }

func (d *Daemon) hnsgw(c HnsgwConfig) error {
	if len(c.Backends) == 0 {
		c.Backends = List{"127.0.0.1:5310"} // -backend's default
	}
	net := transport.NewNetwork()
	up := hrpc.NewClient(net)
	d.undo = append(d.undo, up.Close)
	cfg := gateway.Config{Name: "hnsgw@" + c.Host}
	if c.Rate > 0 || c.MaxInflight > 0 {
		cfg.Admission = &admission.Config{Rate: c.Rate, MaxInflight: c.MaxInflight}
	}
	gw := gateway.NewFailover(up, hrpc.SuiteRawNet, c.Backends, cfg)
	b, err := d.serve(net, gw.Server(), hrpc.SuiteRawNet, c.Host, c.Addr)
	if err != nil {
		return err
	}
	log.Printf("hnsgw: serving %s -> %s (rate %.0f/s, inflight cap %d)", b, c.Backends.String(), c.Rate, c.MaxInflight)
	return nil
}

// ChdConfig is chd's flags, one field each.
type ChdConfig struct {
	Host, Addr, Snapshot, ReplCred, Metrics string
	Open                                    bool
	Principals, Peers                       List
}

// Chd starts a Clearinghouse server, loaded from c.Snapshot when the file
// exists, that forwards each client update to c.Peers. Close saves the
// snapshot once the listener is closed, so it holds what was served.
func Chd(c ChdConfig) (*Daemon, error) { return start(func(d *Daemon) error { return d.chd(c) }) }

func (d *Daemon) chd(c ChdConfig) error {
	auth := clearinghouse.NewAuthenticator(c.Open)
	for _, p := range c.Principals {
		name, secret, ok := strings.Cut(p, "=")
		if !ok {
			return fmt.Errorf("-principal wants name=secret, got %q", p)
		}
		auth.AddPrincipal(name, secret)
	}
	st := clearinghouse.NewStore()
	if c.Snapshot != "" {
		if err := st.LoadFile(c.Snapshot); os.IsNotExist(err) {
			log.Printf("chd: no snapshot at %s; starting empty", c.Snapshot)
		} else if err != nil {
			return err
		} else {
			log.Printf("chd: loaded %d objects from %s", st.Len(), c.Snapshot)
		}
	}
	net := transport.NewNetwork()
	srv := clearinghouse.NewServer(c.Host, st, auth)
	if len(c.Peers) > 0 {
		rpc := hrpc.NewClient(net)
		d.undo = append(d.undo, rpc.Close)
		principal, secret, _ := strings.Cut(c.ReplCred, "=")
		for _, p := range c.Peers {
			srv.AddPeer(chClient(rpc, p, principal, secret))
		}
		log.Printf("chd: replicating to %d peers", len(c.Peers))
	}
	ln, b, err := hrpc.Serve(net, srv.HRPCServer(), hrpc.SuiteCourierNet, c.Host, c.Addr)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	d.addr = b.Addr
	if c.Snapshot != "" {
		// Added after a successful listen, so a failed start writes nothing.
		d.undo = append(d.undo, func() error {
			if err := st.SaveFile(c.Snapshot); err != nil {
				return fmt.Errorf("saving snapshot: %w", err)
			}
			log.Printf("chd: saved %d objects to %s", st.Len(), c.Snapshot)
			return nil
		})
	}
	d.undo = append(d.undo, ln.Close)
	log.Printf("chd: %s serving Clearinghouse %s, %d objects, open=%v", c.Host, b, st.Len(), c.Open)
	return nil
}

// HcsdConfig is hcsd's flags, one field each.
type HcsdConfig struct {
	Host, CH, CHPrincipal, CHSecret     string
	ExecObject, FilesObject, MailObject string
	ExecAddr, FilesAddr, MailAddr       string
}

// Hcsd starts each HCS application service that has a Clearinghouse
// object: a Courier listener, its binding registered under the object in
// the Clearinghouse at c.CH.
func Hcsd(c HcsdConfig) (*Daemon, error) { return start(func(d *Daemon) error { return d.hcsd(c) }) }

func (d *Daemon) hcsd(c HcsdConfig) error {
	net := transport.NewNetwork()
	rpc := hrpc.NewClient(net)
	d.undo = append(d.undo, rpc.Close)
	ch := chClient(rpc, c.CH, c.CHPrincipal, c.CHSecret)
	d.Services = map[string]string{}
	for _, s := range []struct {
		name, addr, object string
		srv                *hrpc.Server
	}{
		{"exec", c.ExecAddr, c.ExecObject, rexec.NewServer(c.Host).HRPCServer()},
		{"filing", c.FilesAddr, c.FilesObject, filing.NewServer(c.Host).HRPCServer()},
		{"mailbox", c.MailAddr, c.MailObject, mail.NewServer(c.Host).HRPCServer()},
	} {
		if s.object == "" {
			continue
		}
		n, err := clearinghouse.ParseName(s.object)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		ln, b, err := hrpc.Serve(net, s.srv, hrpc.SuiteCourierNet, c.Host, s.addr)
		if err != nil {
			return fmt.Errorf("%s: listen: %w", s.name, err)
		}
		d.undo, d.Services[s.name] = append(d.undo, ln.Close), b.Addr
		if err := ch.AddItem(context.Background(), n, clearinghouse.PropBinding, []byte(qclass.FormatBinding(b))); err != nil {
			return fmt.Errorf("registering %s binding: %w", s.name, err)
		}
		log.Printf("hcsd: %s serving at %s, registered as %s", s.name, b, s.object)
	}
	return nil
}
