package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/core"
	"hns/internal/filing"
	"hns/internal/hcs"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/rexec"
	"hns/internal/store"
	"hns/internal/transport"
)

// TestFederation starts the shipped arrangement through the daemons'
// own constructors on loopback: a durable meta bindd with push on, an
// app bindd with its standard interface, nsmd -type hostaddr-bind, and
// hnsd chained and subscribed. It resolves a name end to end, acks one
// RegisterNSM, crashes the meta bindd at a seeded disk write, restarts it
// on the same address from the disk image, and once hnsd's subscription
// has caught up resolves the acked binding through hnsd.
func TestFederation(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { federation(t, seed) })
	}
}

// started returns a check that fails t when a daemon did not start and
// closes the daemon when t ends.
func started(t *testing.T) func(*Daemon, error) *Daemon {
	return func(d *Daemon, err error) *Daemon {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
}

// bindWorld is the BIND world every test resolves NSM hosts in: a meta
// bindd and an app bindd serving fiji and june at 127.0.0.1, with the
// bind-cs name service and its hostaddr-bind context registered through
// admin, an HNS client of the meta bindd.
type bindWorld struct {
	meta, app *Daemon
	rpc       *hrpc.Client
	admin     *core.HNS
}

func newBindWorld(t *testing.T, ctx context.Context, meta BinddConfig) *bindWorld {
	t.Helper()
	zoneFile := filepath.Join(t.TempDir(), "app.zone")
	if err := os.WriteFile(zoneFile, []byte("fiji.cs.washington.edu 600 A 127.0.0.1\njune.cs.washington.edu 600 A 127.0.0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := &bindWorld{meta: started(t)(Bindd(meta)), app: started(t)(Bindd(BinddConfig{Host: "fiji", Zones: List{"cs.washington.edu"},
		Update: true, Records: zoneFile, HRPC: "127.0.0.1:0", Std: "127.0.0.1:0"}))}
	w.rpc = hrpc.NewClient(transport.NewNetwork())
	t.Cleanup(func() { w.rpc.Close() })
	w.admin = core.New(bind.NewHRPCClient(w.rpc, hrpc.SuiteRawNet.Bind(w.meta.Addr(), w.meta.Addr(), bind.HRPCProgram, bind.HRPCVersion)),
		core.Config{MetaZone: "hns", RPC: w.rpc})
	if err := w.admin.RegisterNameService(ctx, "bind-cs", "bind"); err != nil {
		t.Fatal(err)
	}
	if err := w.admin.RegisterContext(ctx, "hostaddr-bind", "bind-cs"); err != nil {
		t.Fatal(err)
	}
	return w
}

// hnsd starts an hnsd over the world's meta bindd, linked to its app bindd.
func (w *bindWorld) hnsd(t *testing.T, subscribe bool) *Daemon {
	return started(t)(Hnsd(HnsdConfig{Host: "hns", Addr: "127.0.0.1:0", Meta: w.meta.Addr(), MetaZone: "hns",
		Subscribe: subscribe, LinkBind: List{"bind-cs=" + w.app.StdAddr()}}))
}

// remote is an HNS client of the FindNSM service at addr.
func (w *bindWorld) remote(addr string) *core.RemoteHNS {
	return core.NewRemoteHNS(w.rpc, hrpc.SuiteRawNet.Bind(addr, addr, core.HNSProgram, core.HNSVersion))
}

// nsmOnJune is an NSM registration for a server on june at addr's port.
func nsmOnJune(name, ns, qc, addr string, suite hrpc.Suite) core.NSMInfo {
	_, port, _ := net.SplitHostPort(addr)
	return core.NSMInfo{Name: name, NameService: ns, QueryClass: qc, Host: "june.cs.washington.edu",
		HostContext: "hostaddr-bind", Port: port, Suite: suite}
}

func federation(t *testing.T, seed int64) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	disk := store.NewMemFS()
	plan := store.NewFaultPlan(seed)
	metaCfg := BinddConfig{Host: "tahoma", Zones: List{"hns"}, Update: true, Push: true,
		HRPC: "127.0.0.1:0", FS: store.NewFaultFS(disk, plan)}
	w := newBindWorld(t, ctx, metaCfg)
	nsmd := started(t)(Nsmd(NsmdConfig{Host: "june", Addr: "127.0.0.1:0", Type: "hostaddr-bind", NS: "bind-cs",
		BindStd: w.app.StdAddr()}))
	hnsd := w.hnsd(t, true)

	admin, rpc := w.admin, w.rpc
	nsmInfo := func(name, ns string) core.NSMInfo {
		return nsmOnJune(name, ns, qclass.HostAddress, nsmd.Addr(), hrpc.SuiteSunRPCNet)
	}
	for _, step := range []func() error{
		func() error { return admin.RegisterNSM(ctx, nsmInfo("hostaddr-bind-1", "bind-cs")) },
		func() error { return admin.RegisterNameService(ctx, "bind-cs2", "bind") },
		func() error { return admin.RegisterContext(ctx, "hostaddr-bind2", "bind-cs2") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	remote := w.remote(hnsd.Addr())
	resolve := func(context string) {
		t.Helper()
		name := names.Must(context, "fiji.cs.washington.edu")
		b, err := remote.FindNSM(ctx, name, qclass.HostAddress)
		if err != nil {
			t.Fatalf("FindNSM %s: %v", name, err)
		}
		if b.Addr != nsmd.Addr() {
			t.Fatalf("FindNSM %s = %s, want nsmd at %s", name, b.Addr, nsmd.Addr())
		}
		if addr, err := nsm.CallResolveHost(ctx, rpc, b, name); err != nil || addr != "127.0.0.1" {
			t.Fatalf("resolving %s through nsmd: %q, %v", name, addr, err)
		}
	}
	resolve("hostaddr-bind")

	// The acked registration; then the disk dies at a seeded write among
	// the updates after it.
	if err := admin.RegisterNSM(ctx, nsmInfo("hostaddr-bind-2", "bind-cs2")); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	plan.CrashAfterWrites(1+rng.Intn(3), rng.Intn(2) == 0)
	for i := 0; !plan.Crashed(); i++ {
		if i == 10 {
			t.Fatal("ten updates after the crash point and the disk has not crashed")
		}
		// Acked or refused, all that matters is where the disk dies.
		_ = admin.RegisterNameService(ctx, fmt.Sprintf("junk-%d", i), "bind")
	}
	w.meta.Close()

	metaCfg.HRPC, metaCfg.FS = w.meta.Addr(), disk
	started(t)(Bindd(metaCfg))
	if err := hnsd.HNS.MetaSubscription().Sync(ctx); err != nil {
		t.Fatalf("hnsd's subscription after the restart: %v", err)
	}
	resolve("hostaddr-bind2")
	resolve("hostaddr-bind")
}

// TestFrontDoor starts hnsgw with an inflight cap in front of two hnsd
// backends and resolves through it: the gateway admits each call, and
// once the first backend is closed the second answers every call.
func TestFrontDoor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := newBindWorld(t, ctx, BinddConfig{Host: "tahoma", Zones: List{"hns"}, Update: true, HRPC: "127.0.0.1:0"})
	const nsmAddr = "127.0.0.1:5320"
	if err := w.admin.RegisterNSM(ctx, nsmOnJune("hostaddr-bind-1", "bind-cs", qclass.HostAddress, nsmAddr, hrpc.SuiteSunRPCNet)); err != nil {
		t.Fatal(err)
	}
	first, second := w.hnsd(t, false), w.hnsd(t, false)
	gw := started(t)(Hnsgw(HnsgwConfig{Host: "front", Addr: "127.0.0.1:0", MaxInflight: 8,
		Backends: List{first.Addr(), second.Addr()}}))
	admitted := metrics.Default().Counter(metrics.Labels("admission_admitted_total", "server", "hnsgw@front"))
	front := w.remote(gw.Addr())
	resolve := func(stage string, backend *Daemon) {
		t.Helper()
		admits, calls := admitted.Value(), backend.HNS.Stats().FindNSMCalls
		for i := range 4 {
			name := names.Must("hostaddr-bind", fmt.Sprintf("host%d.cs.washington.edu", i))
			if b, err := front.FindNSM(ctx, name, qclass.HostAddress); err != nil || b.Addr != nsmAddr {
				t.Fatalf("%s: FindNSM %s through the gateway = %s, %v; want %s", stage, name, b.Addr, err, nsmAddr)
			}
		}
		if got := admitted.Value() - admits; got != 4 {
			t.Errorf("%s: the gateway admitted %d calls, want 4", stage, got)
		}
		if got := backend.HNS.Stats().FindNSMCalls - calls; got != 4 {
			t.Errorf("%s: the backend expected to answer served %d calls, want 4", stage, got)
		}
	}
	resolve("both up", first)
	first.Close()
	resolve("first closed", second)
}

// TestXeroxWorld is the Clearinghouse world end to end: chd, hcsd
// registering its exec and filing services there, a binding-ch nsmd, and
// hnsd over a meta bindd. It binds both services through hnsd, runs one
// command and puts and gets one file, then restarts chd from the
// snapshot it saved on Close and finds hcsd's registration still there.
func TestXeroxWorld(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const principal, secret = "smoke:cs:uw", "pw"
	chCfg := ChdConfig{Host: "xerox", Addr: "127.0.0.1:0", Open: true, Snapshot: filepath.Join(t.TempDir(), "ch.json")}
	ch := started(t)(Chd(chCfg))
	hcsd := started(t)(Hcsd(HcsdConfig{Host: "xerox-d0", CH: ch.Addr(), CHPrincipal: principal, CHSecret: secret,
		ExecObject: "compute:cs:uw", FilesObject: "bigfiles:cs:uw", ExecAddr: "127.0.0.1:0", FilesAddr: "127.0.0.1:0"}))
	w := newBindWorld(t, ctx, BinddConfig{Host: "tahoma", Zones: List{"hns"}, Update: true, HRPC: "127.0.0.1:0"})
	nsmd := started(t)(Nsmd(NsmdConfig{Host: "june", Addr: "127.0.0.1:0", Type: "binding-ch", NS: "ch-uw",
		CH: ch.Addr(), CHPrincipal: principal, CHSecret: secret}))
	hnsd := w.hnsd(t, false)
	for _, step := range []func() error{
		// hnsd resolves june through its linked NSM and never dials this one.
		func() error {
			return w.admin.RegisterNSM(ctx, nsmOnJune("hostaddr-bind-1", "bind-cs", qclass.HostAddress, "127.0.0.1:5320", hrpc.SuiteSunRPCNet))
		},
		func() error { return w.admin.RegisterNameService(ctx, "ch-uw", "clearinghouse") },
		func() error { return w.admin.RegisterContext(ctx, "hrpcbinding-ch", "ch-uw") },
		func() error {
			return w.admin.RegisterNSM(ctx, nsmOnJune("binding-ch-1", "ch-uw", qclass.HRPCBinding, nsmd.Addr(), hrpc.SuiteCourierNet))
		},
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}

	finder := w.remote(hnsd.Addr())
	compute, bigfiles := names.Must("hrpcbinding-ch", "compute:cs:uw"), names.Must("hrpcbinding-ch", "bigfiles:cs:uw")
	out, exit, err := rexec.NewClient(hcs.New(finder, w.rpc), w.rpc).Run(ctx, compute, "echo", []string{"loose", "integration"}, "")
	if err != nil || exit != 0 || !strings.Contains(out, "loose integration") {
		t.Fatalf("exec on %s: %q, exit %d, %v", compute, out, exit, err)
	}
	files := filing.NewClient(finder, w.rpc)
	if err := files.Store(ctx, bigfiles, "/notes/xerox", []byte("written through the HNS")); err != nil {
		t.Fatalf("storing on %s: %v", bigfiles, err)
	}
	if got, err := files.Fetch(ctx, bigfiles, "/notes/xerox"); err != nil || string(got) != "written through the HNS" {
		t.Fatalf("fetching from %s: %q, %v", bigfiles, got, err)
	}

	ch.Close()
	chCfg.Addr = ch.Addr()
	ch = started(t)(Chd(chCfg))
	raw, err := chClient(w.rpc, ch.Addr(), principal, secret).Retrieve(ctx, clearinghouse.MustName("compute:cs:uw"), clearinghouse.PropBinding)
	if err != nil {
		t.Fatalf("compute:cs:uw after chd's restart: %v", err)
	}
	if b, err := qclass.ParseBinding(string(raw)); err != nil || b.Addr != hcsd.Services["exec"] {
		t.Fatalf("compute:cs:uw after chd's restart binds %q (%v), want hcsd's exec service at %s", raw, err, hcsd.Services["exec"])
	}
}

// TestMirror starts a push primary bindd and a mirror following it, then
// adds a record on the primary: the mirror takes it by NOTIFY (its poll is
// an hour off) and serves it, which a subscriber to the mirror sees
// republished. A mirror with a non-positive refresh is refused before it
// listens.
func TestMirror(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	primary := started(t)(Bindd(BinddConfig{Host: "tahoma", Zones: List{"hns"}, Update: true, Push: true, HRPC: "127.0.0.1:0"}))
	mirrorCfg := BinddConfig{Host: "tahoma2", Zones: List{"hns"}, Secondary: primary.Addr(), Refresh: time.Hour,
		Push: true, HRPC: "127.0.0.1:0"}
	mirror := started(t)(Bindd(mirrorCfg))
	rpc := hrpc.NewClient(transport.NewNetwork())
	t.Cleanup(func() { rpc.Close() })
	client := func(d *Daemon) *bind.HRPCClient {
		return bind.NewHRPCClient(rpc, hrpc.SuiteRawNet.Bind(d.Addr(), d.Addr(), bind.HRPCProgram, bind.HRPCVersion))
	}
	sub := bind.NewSubscriber(client(mirror), bind.SubscribeConfig{Zone: "hns", Metrics: metrics.Discard})
	sub.Start()
	defer sub.Close()

	serial, err := client(primary).Apply(ctx, "hns", bind.Adds(bind.A("fiji.hns", "127.0.0.1", 600)))
	if err != nil {
		t.Fatal(err)
	}
	for {
		changed := sub.Changed()
		if sub.LastSerial() >= serial {
			break
		}
		select {
		case <-changed:
		case <-ctx.Done():
			t.Fatalf("the mirror's subscriber is at serial %d, want %d: %v", sub.LastSerial(), serial, ctx.Err())
		}
	}
	if rrs, err := client(mirror).Lookup(ctx, "fiji.hns", bind.TypeA); err != nil || len(rrs) != 1 || string(rrs[0].Data) != "127.0.0.1" {
		t.Fatalf("fiji.hns on the mirror = %v, %v; want one A record 127.0.0.1", rrs, err)
	}

	for _, refresh := range []time.Duration{0, -time.Second} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mirrorCfg.HRPC, mirrorCfg.Refresh = ln.Addr().String(), refresh
		ln.Close()
		if d, err := Bindd(mirrorCfg); err == nil {
			d.Close()
			t.Fatalf("a mirror with -refresh %s started", refresh)
		}
		ln, err = net.Listen("tcp", mirrorCfg.HRPC)
		if err != nil {
			t.Fatalf("after the refused mirror with -refresh %s: %v", refresh, err)
		}
		ln.Close()
	}
}

// framesTotal sums every transport_frames_total series in the process
// registry, which every daemon started here shares.
func framesTotal() int64 {
	var total int64
	for _, c := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "transport_frames_total") {
			total += c.Value
		}
	}
	return total
}

// debugHNS reads the /debug/hns series of the process registry, served at
// addr, into one map.
func debugHNS(t *testing.T, addr string) map[string]int64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/hns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, s := range append(snap.Counters, snap.Gauges...) {
		out[s.Name] = s.Value
	}
	return out
}

// TestMemoFollowsFlip starts the arrangement the benchmark runs — a push
// meta bindd, hnsd subscribed to it, hnsgw in front, and two nsmd on
// different addresses — with a caller behind hnsgw that keeps what it is
// told it may. Once kept, contexts C and D are answered with no frame.
// Flipping C to the other NSM by one Apply makes the caller answer the new
// NSM as soon as the relay reaches it, while D stays a hit that moves no
// frame. /debug/hns shows the memo and the two watches.
func TestMemoFollowsFlip(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	msrv, err := metrics.Serve("127.0.0.1:0", metrics.Default())
	if err != nil {
		t.Fatal(err)
	}
	defer msrv.Close()
	before := debugHNS(t, msrv.Addr())
	w, nsmdA, nsmdB := memoWorld(t, ctx)
	hnsd := w.hnsd(t, true)
	gw := started(t)(Hnsgw(HnsgwConfig{Host: "front", Addr: "127.0.0.1:0", Backends: List{hnsd.Addr()}}))
	if err := hnsd.HNS.MetaSubscription().Sync(ctx); err != nil {
		t.Fatal(err)
	}
	caller := w.remote(gw.Addr())
	find := func(context string) string {
		t.Helper()
		name := names.Must(context, "fiji.cs.washington.edu")
		b, err := caller.FindNSM(ctx, name, qclass.HostAddress)
		if err != nil {
			t.Fatalf("FindNSM %s: %v", name, err)
		}
		if addr, err := nsm.CallResolveHost(ctx, w.rpc, b, name); err != nil || addr != "127.0.0.1" {
			t.Fatalf("resolving %s through the NSM at %s: %q, %v", name, b.Addr, addr, err)
		}
		return b.Addr
	}
	// The first FindNSM goes out unwatched and is followed by the Watch,
	// through hnsgw to hnsd; the second is kept.
	for range 2 {
		for _, cx := range []string{"ctx-c", "ctx-d"} {
			if got := find(cx); got != nsmdA.Addr() {
				t.Fatalf("FindNSM %s = %s, want the NSM at %s", cx, got, nsmdA.Addr())
			}
		}
	}
	kept(t, ctx, caller, nsmdA.Addr(), "ctx-c", "ctx-d")

	flip, err := core.ContextRecord("hns", "ctx-c", "bind-b")
	if err != nil {
		t.Fatal(err)
	}
	meta := bind.NewHRPCClient(w.rpc, hrpc.SuiteRawNet.Bind(w.meta.Addr(), w.meta.Addr(), bind.HRPCProgram, bind.HRPCVersion))
	if _, err := meta.Apply(ctx, "hns", append(bind.Removes(bind.TypeHNSMeta, "ctx-c.ctx.hns"), bind.Adds(flip)...)); err != nil {
		t.Fatal(err)
	}
	for {
		changed := caller.Changed()
		if find("ctx-c") == nsmdB.Addr() {
			break
		}
		select {
		case <-changed:
		case <-ctx.Done():
			t.Fatalf("ctx-c still answers the NSM at %s after its flip: %v", nsmdA.Addr(), ctx.Err())
		}
	}
	kept(t, ctx, caller, nsmdA.Addr(), "ctx-d")

	after := debugHNS(t, msrv.Addr())
	if after[`cache_entries{cache="hns_memo"}`] == 0 || after[`cache_hits_total{cache="hns_memo"}`] == 0 {
		t.Errorf("/debug/hns shows a memo of %d entries and %d hits, want both above 0",
			after[`cache_entries{cache="hns_memo"}`], after[`cache_hits_total{cache="hns_memo"}`])
	}
	// hnsd's subscription at bindd, hnsgw's watch at hnsd, the caller's at hnsgw.
	if got := after["push_subscribe_total"] - before["push_subscribe_total"]; got != 3 {
		t.Errorf("/debug/hns counts %d subscriptions taken, want 3", got)
	}
}

// kept checks that the caller answers each context with the NSM at want
// and moves no frame doing it.
func kept(t *testing.T, ctx context.Context, caller *core.RemoteHNS, want string, contexts ...string) {
	t.Helper()
	frames := framesTotal()
	for _, cx := range contexts {
		name := names.Must(cx, "fiji.cs.washington.edu")
		if b, err := caller.FindNSM(ctx, name, qclass.HostAddress); err != nil || b.Addr != want {
			t.Fatalf("FindNSM %s = %s, %v; want the NSM at %s", name, b.Addr, err, want)
		}
	}
	if got := framesTotal() - frames; got != 0 {
		t.Errorf("kept answers for %v moved %d frames, want 0", contexts, got)
	}
}

// TestMemoPurgedWhenAHopDies: when hnsgw dies, its caller's watched
// connection does; when hnsd dies, hnsgw's does and hnsgw relays a flush.
// Either way the caller drops what it kept: its next FindNSM goes out and
// fails, where it had answered with no frame. When the meta bindd dies,
// hnsd's subscription does, and the flush hnsd relays reaches the caller
// through hnsgw: its next FindNSM reaches hnsd again.
func TestMemoPurgedWhenAHopDies(t *testing.T) {
	for _, hop := range []string{"hnsgw", "hnsd", "bindd"} {
		t.Run(hop, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			w, nsmdA, _ := memoWorld(t, ctx)
			hnsd := w.hnsd(t, true)
			gw := started(t)(Hnsgw(HnsgwConfig{Host: "front", Addr: "127.0.0.1:0", Backends: List{hnsd.Addr()}}))
			if err := hnsd.HNS.MetaSubscription().Sync(ctx); err != nil {
				t.Fatal(err)
			}
			caller := w.remote(gw.Addr())
			name := names.Must("ctx-c", "fiji.cs.washington.edu")
			for range 2 {
				if _, err := caller.FindNSM(ctx, name, qclass.HostAddress); err != nil {
					t.Fatal(err)
				}
			}
			kept(t, ctx, caller, nsmdA.Addr(), "ctx-c")
			map[string]*Daemon{"hnsgw": gw, "hnsd": hnsd, "bindd": w.meta}[hop].Close()
			for {
				changed := caller.Changed()
				calls := hnsd.HNS.Stats().FindNSMCalls
				if _, err := caller.FindNSM(ctx, name, qclass.HostAddress); err != nil || hnsd.HNS.Stats().FindNSMCalls > calls {
					break
				}
				select {
				case <-changed:
				case <-ctx.Done():
					t.Fatalf("the caller still answers %s from what it kept after %s died", name, hop)
				}
			}
		})
	}
}

// memoWorld is a bind world with a push meta bindd, two nsmd on
// different addresses serving name services bind-a and bind-b, and
// contexts ctx-c and ctx-d both mapped to bind-a.
func memoWorld(t *testing.T, ctx context.Context) (w *bindWorld, nsmdA, nsmdB *Daemon) {
	t.Helper()
	w = newBindWorld(t, ctx, BinddConfig{Host: "tahoma", Zones: List{"hns"}, Update: true, Push: true, HRPC: "127.0.0.1:0"})
	nsmd := func(ns string) *Daemon {
		return started(t)(Nsmd(NsmdConfig{Host: "june", Addr: "127.0.0.1:0", Type: "hostaddr-bind", NS: ns, BindStd: w.app.StdAddr()}))
	}
	nsmdA, nsmdB = nsmd("bind-a"), nsmd("bind-b")
	for _, step := range []func() error{
		func() error {
			return w.admin.RegisterNSM(ctx, nsmOnJune("hostaddr-bind-1", "bind-cs", qclass.HostAddress, nsmdA.Addr(), hrpc.SuiteSunRPCNet))
		},
		func() error { return w.admin.RegisterNameService(ctx, "bind-a", "bind") },
		func() error { return w.admin.RegisterNameService(ctx, "bind-b", "bind") },
		func() error {
			return w.admin.RegisterNSM(ctx, nsmOnJune("nsm-a", "bind-a", qclass.HostAddress, nsmdA.Addr(), hrpc.SuiteSunRPCNet))
		},
		func() error {
			return w.admin.RegisterNSM(ctx, nsmOnJune("nsm-b", "bind-b", qclass.HostAddress, nsmdB.Addr(), hrpc.SuiteSunRPCNet))
		},
		func() error { return w.admin.RegisterContext(ctx, "ctx-c", "bind-a") },
		func() error { return w.admin.RegisterContext(ctx, "ctx-d", "bind-a") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return w, nsmdA, nsmdB
}
