package core_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/world"
)

func newWorld(t *testing.T, cfg world.Config) *world.World {
	t.Helper()
	w, err := world.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestFindNSMBindWorld(t *testing.T) {
	w := newWorld(t, world.Config{})
	b, err := w.HNS.FindNSM(context.Background(), world.DesiredServiceName(), qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	if b.Host != world.HostNSM {
		t.Fatalf("NSM host = %q, want %q", b.Host, world.HostNSM)
	}
	if b.Addr != "june:"+world.PortBindingBind {
		t.Fatalf("NSM addr = %q", b.Addr)
	}
	if b.Program != qclass.ProgHRPCBinding || b.Version != qclass.NSMVersion {
		t.Fatalf("NSM program = %d.%d", b.Program, b.Version)
	}
	if b.Control != "sunrpc" {
		t.Fatalf("BIND-world NSM control = %q, want sunrpc", b.Control)
	}
}

func TestFindNSMCHWorld(t *testing.T) {
	w := newWorld(t, world.Config{})
	b, err := w.HNS.FindNSM(context.Background(), world.CourierServiceName(), qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	if b.Addr != "june:"+world.PortBindingCH {
		t.Fatalf("NSM addr = %q", b.Addr)
	}
	if b.Control != "courier" {
		t.Fatalf("CH-world NSM control = %q, want courier", b.Control)
	}
}

// TestFindNSMIdenticalInterface verifies Figure 2.1's property: two
// queries in different worlds yield bindings with the same program and
// procedure interface, so the client needs no knowledge of which name
// service answers.
func TestFindNSMIdenticalInterface(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	b1, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := w.HNS.FindNSM(ctx, world.CourierServiceName(), qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Program != b2.Program || b1.Version != b2.Version {
		t.Fatalf("interfaces differ: %v vs %v", b1, b2)
	}
	if b1.Addr == b2.Addr {
		t.Fatal("different worlds resolved to the same NSM")
	}
}

// TestFindNSMSixMappings verifies the paper's structural claim: a
// cache-cold FindNSM performs exactly six remote data mappings; a warm one
// performs none.
func TestFindNSMSixMappings(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	name := world.DesiredServiceName()

	if _, err := w.HNS.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	st := w.HNS.Stats()
	// Five of the six mappings are meta-cache misses (mapping 6 is the
	// hostaddr NSM's underlying lookup, counted in its own cache).
	if st.Cache.Misses != 5 {
		t.Fatalf("meta-cache misses = %d, want 5", st.Cache.Misses)
	}
	if hs := w.BindHostNSM.CacheStats(); hs.Misses != 1 {
		t.Fatalf("hostaddr NSM misses = %d, want 1", hs.Misses)
	}

	// Second call: all six served from caches.
	if _, err := w.HNS.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	st2 := w.HNS.Stats()
	if st2.Cache.Misses != st.Cache.Misses {
		t.Fatalf("warm FindNSM missed the cache: %+v", st2.Cache)
	}
	if st2.Cache.Hits != 5 {
		t.Fatalf("warm FindNSM hits = %d, want 5", st2.Cache.Hits)
	}
}

// TestFindNSMCostAnchors pins the headline HNS numbers: ≈460 ms cache-cold
// (the paper's initial FindNSM measurement) shrinking to ≈88 ms with the
// (marshalled-entry) cache.
func TestFindNSMCostAnchors(t *testing.T) {
	w := newWorld(t, world.Config{CacheMode: bind.CacheMarshalled})
	ctx := context.Background()
	name := world.DesiredServiceName()

	missCost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := w.HNS.FindNSM(ctx, name, qclass.HRPCBinding)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	hitCost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := w.HNS.FindNSM(ctx, name, qclass.HRPCBinding)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ms(missCost); got < 300 || got > 480 {
		t.Errorf("FindNSM miss = %.1f ms, want the paper's few-hundred-ms scale (460)", got)
	}
	if got := ms(hitCost); got < 70 || got > 110 {
		t.Errorf("FindNSM marshalled-cache hit = %.1f ms, want ≈88 ms", got)
	}
	if missCost < 4*hitCost {
		t.Errorf("caching speedup %0.1fx below the paper's ≈5x", float64(missCost)/float64(hitCost))
	}
}

func TestFindNSMDemarshalledCacheFaster(t *testing.T) {
	// The Table 3.2 lesson applied to FindNSM: demarshalled meta-cache
	// entries make warm FindNSM dramatically cheaper than 88 ms.
	w := newWorld(t, world.Config{CacheMode: bind.CacheDemarshalled})
	ctx := context.Background()
	name := world.DesiredServiceName()
	if _, err := w.HNS.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	hitCost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := w.HNS.FindNSM(ctx, name, qclass.HRPCBinding)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ms(hitCost); got > 15 {
		t.Fatalf("demarshalled warm FindNSM = %.1f ms, want ≪ 88 ms", got)
	}
}

func TestFindNSMErrors(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()

	_, err := w.HNS.FindNSM(ctx, names.Must("no-such-context", "x"), qclass.HRPCBinding)
	if !errors.Is(err, core.ErrNoSuchContext) {
		t.Fatalf("unknown context: %v", err)
	}
	_, err = w.HNS.FindNSM(ctx, world.DesiredServiceName(), "no-such-class")
	if !errors.Is(err, core.ErrNoSuchNSM) {
		t.Fatalf("unknown query class: %v", err)
	}
	_, err = w.HNS.FindNSM(ctx, names.Name{}, qclass.HRPCBinding)
	if err == nil {
		t.Fatal("zero name accepted")
	}
}

func TestRegisterAndUnregister(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	h := w.HNS

	// A new system type arrives: register its service, context, and NSM.
	if err := h.RegisterNameService(ctx, "uniflex-ns", "uniflex"); err != nil {
		t.Fatal(err)
	}
	if err := h.RegisterContext(ctx, "hrpcbinding-uniflex", "uniflex-ns"); err != nil {
		t.Fatal(err)
	}
	info := core.NSMInfo{
		Name: "binding-uniflex-1", NameService: "uniflex-ns",
		QueryClass: qclass.HRPCBinding,
		Host:       world.HostNSM, HostContext: world.CtxHostB,
		Port: world.PortBindingBind, Suite: hrpc.SuiteRaw,
	}
	if err := h.RegisterNSM(ctx, info); err != nil {
		t.Fatal(err)
	}
	b, err := h.FindNSM(ctx, names.Must("hrpcbinding-uniflex", "anything"), qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	if b.Transport != "tcp" || b.Control != "raw" {
		t.Fatalf("uniflex NSM binding = %v", b)
	}

	// Unregister and confirm it is gone.
	if err := h.UnregisterNSM(ctx, "binding-uniflex-1", "uniflex-ns", qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	if _, err := h.FindNSM(ctx, names.Must("hrpcbinding-uniflex", "x"), qclass.HRPCBinding); !errors.Is(err, core.ErrNoSuchNSM) {
		t.Fatalf("after unregister: %v", err)
	}
	if err := h.UnregisterContext(ctx, "hrpcbinding-uniflex"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.FindNSM(ctx, names.Must("hrpcbinding-uniflex", "x"), qclass.HRPCBinding); !errors.Is(err, core.ErrNoSuchContext) {
		t.Fatalf("after context unregister: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	if err := w.HNS.RegisterNSM(ctx, core.NSMInfo{Name: "incomplete"}); err == nil {
		t.Fatal("incomplete NSM registration accepted")
	}
	if err := w.HNS.RegisterContext(ctx, "bad context!", "ns"); err == nil {
		t.Fatal("bad context name accepted")
	}
	if err := w.HNS.RegisterNameService(ctx, "", ""); err == nil {
		t.Fatal("empty name service accepted")
	}
}

func TestListRegistrations(t *testing.T) {
	w := newWorld(t, world.Config{})
	inv, err := w.HNS.ListRegistrations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.NameServices) != 2 {
		t.Fatalf("name services = %v", inv.NameServices)
	}
	if inv.Contexts[world.CtxBind] != world.NSBind {
		t.Fatalf("contexts = %v", inv.Contexts)
	}
	if inv.NSMs[qclass.HRPCBinding+"@"+world.NSBind] != "binding-bind-1" {
		t.Fatalf("NSMs = %v", inv.NSMs)
	}
}

// TestPreload pins the preloading experiment: ~2 KB of meta-information,
// ~390 ms, and guaranteed cache hits afterwards.
func TestPreload(t *testing.T) {
	w := newWorld(t, world.Config{CacheMode: bind.CacheMarshalled})
	ctx := context.Background()

	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		rep, err := w.HNS.Preload(ctx)
		if err != nil {
			return err
		}
		if rep.Records == 0 {
			t.Error("preload transferred no records")
		}
		// "the relatively small amount of information (currently about
		// 2KB)" — ours must be the same order of magnitude.
		if rep.Bytes < 500 || rep.Bytes > 8000 {
			t.Errorf("preload size = %d bytes, want ~2 KB scale", rep.Bytes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ms(cost); got < 250 || got > 520 {
		t.Errorf("preload cost = %.1f ms, want ≈390 ms", got)
	}

	// After preloading, FindNSM must be all cache hits.
	st0 := w.HNS.Stats()
	if _, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	st1 := w.HNS.Stats()
	if st1.Cache.Misses != st0.Cache.Misses {
		t.Fatalf("FindNSM missed after preload: %+v", st1.Cache)
	}
}

func TestFreshSerialProbe(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	rep, err := w.HNS.Preload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := w.HNS.Fresh(ctx, rep.Serial)
	if err != nil || !fresh {
		t.Fatalf("Fresh = %v, %v", fresh, err)
	}
	// A registration bumps the serial.
	if err := w.HNS.RegisterNameService(ctx, "another-ns", "test"); err != nil {
		t.Fatal(err)
	}
	fresh, err = w.HNS.Fresh(ctx, rep.Serial)
	if err != nil || fresh {
		t.Fatalf("Fresh after update = %v, %v", fresh, err)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	clk := simtime.NewFakeClock(time.Now())
	w := newWorld(t, world.Config{Clock: clk})
	ctx := context.Background()
	name := world.DesiredServiceName()
	if _, err := w.HNS.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	// Meta TTL is 600 s; advance beyond it.
	clk.Advance(time.Duration(core.DefaultMetaTTL+10) * time.Second)
	m0 := w.HNS.Stats().Cache.Misses
	if _, err := w.HNS.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	if got := w.HNS.Stats().Cache.Misses; got <= m0 {
		t.Fatal("expired meta entries served from cache")
	}
}

func TestRemoteHNS(t *testing.T) {
	w := newWorld(t, world.Config{})
	ln, hb, err := core.ServeHNS(w.Net, w.HNS, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	remote := core.NewRemoteHNS(w.RPC, hb)

	ctx := context.Background()
	bLocal, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	bRemote, err := remote.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	if bLocal != bRemote {
		t.Fatalf("remote FindNSM %v != local %v", bRemote, bLocal)
	}
	// Remote errors surface as faults.
	if _, err := remote.FindNSM(ctx, names.Must("ghost", "x"), qclass.HRPCBinding); err == nil {
		t.Fatal("remote FindNSM for ghost context succeeded")
	}
}

// TestRemoteHostAddrFallback exercises the generalisation beyond the
// prototype: an NSM whose host is named in a service with no linked
// HostAddress resolver is still resolvable by calling that service's
// HostAddress NSM remotely.
func TestRemoteHostAddrFallback(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	// Register an NSM that lives on the Xerox D-machine, whose host name
	// is a Clearinghouse name.
	err := w.HNS.RegisterNSM(ctx, core.NSMInfo{
		Name: "mail-ch-xerox", NameService: "uniflex2-ns", QueryClass: qclass.MailRoute,
		Host: world.HostXerox, HostContext: world.CtxHostCH,
		Port: "nsm-mail", Suite: hrpc.SuiteCourier,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.HNS.RegisterNameService(ctx, "uniflex2-ns", "test"); err != nil {
		t.Fatal(err)
	}
	if err := w.HNS.RegisterContext(ctx, "mail-uniflex2", "uniflex2-ns"); err != nil {
		t.Fatal(err)
	}

	// An HNS instance with only remote HostAddress access for the CH
	// world: no linked CH resolver, but RPC fallback available.
	h := w.NewHNS(core.Config{})
	h2 := core.New(w.MetaHRPCClient(), core.Config{MetaZone: world.MetaZone, RPC: w.RPC})
	h2.LinkHostResolver(world.NSBind, w.BindHostNSM) // bind linked, CH not
	_ = h

	b, err := h2.FindNSM(ctx, names.Must("mail-uniflex2", "whoever"), qclass.MailRoute)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.Addr, "xerox:") {
		t.Fatalf("fallback resolution addr = %q, want on xerox", b.Addr)
	}

	// Without RPC fallback the same resolution must fail cleanly.
	h3 := core.New(w.MetaHRPCClient(), core.Config{MetaZone: world.MetaZone})
	h3.LinkHostResolver(world.NSBind, w.BindHostNSM)
	if _, err := h3.FindNSM(ctx, names.Must("mail-uniflex2", "x"), qclass.MailRoute); err == nil {
		t.Fatal("resolution without linked resolver or RPC succeeded")
	}
}

func TestStatsCounters(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
			t.Fatal(err)
		}
	}
	st := w.HNS.Stats()
	if st.FindNSMCalls != 3 {
		t.Fatalf("FindNSMCalls = %d", st.FindNSMCalls)
	}
	if st.Cache.HitRate <= 0.5 {
		t.Fatalf("hit rate = %f after warm calls", st.Cache.HitRate)
	}
}

// TestSubscribeMetaInvalidatesRemoteCache is the tentpole scenario: a
// second HNS instance (a "remote" cache that would otherwise converge
// only by TTL) subscribes to the meta zone; an update made elsewhere
// must evict its cached entries via push, long before any TTL expires.
func TestSubscribeMetaInvalidatesRemoteCache(t *testing.T) {
	w := newWorld(t, world.Config{})
	w.MetaServer.EnablePush(0)

	h2 := w.NewHNS(core.Config{MetaZone: world.MetaZone})
	if !h2.SubscribeMeta() {
		t.Fatal("SubscribeMeta refused with push enabled")
	}
	defer h2.UnsubscribeMeta()
	sub := h2.MetaSubscription()
	if sub == nil {
		t.Fatal("no subscription exposed")
	}
	waitSubscriber(t, "an active subscription", sub, sub.Active)

	// Warm h2's meta cache (default meta TTL is 600s — far beyond this
	// test's lifetime, so only push can invalidate it in time).
	ctx := context.Background()
	if _, err := h2.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}

	// The registration authority (a DIFFERENT HNS instance) withdraws the
	// NSM. h2 must observe the withdrawal via push, not TTL.
	if err := w.HNS.UnregisterNSM(ctx, "binding-bind-1", world.NSBind, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	serial := w.MetaServer.Zone(world.MetaZone).Serial()
	waitSubscriber(t, "the withdrawal's NOTIFY", sub, func() bool { return sub.LastSerial() >= serial })
	if _, err := h2.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); !errors.Is(err, core.ErrNoSuchNSM) {
		t.Fatalf("remote cache still serves the withdrawn NSM: %v", err)
	}

	// A client that cannot subscribe (the optional interface is absent)
	// reports so and keeps working on TTL.
	plain := core.New(noSubMeta{w.MetaHRPCClient()}, core.Config{MetaZone: world.MetaZone})
	if plain.SubscribeMeta() {
		t.Fatal("SubscribeMeta succeeded on a client without the optional interface")
	}
}

// waitSubscriber blocks until cond holds, checking it again at each change
// of sub's state: a condition gate, not a poll.
func waitSubscriber(t *testing.T, what string, sub *bind.Subscriber, cond func() bool) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		changed := sub.Changed()
		if cond() {
			return
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// noSubMeta wraps a MetaClient, hiding any Subscribe method.
type noSubMeta struct{ core.MetaClient }

// gatedMeta parks one armed Lookup of an NSM record after the authority
// has answered it, so a test can land an update and a flush in between.
type gatedMeta struct {
	core.MetaClient
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gatedMeta) Lookup(ctx context.Context, name string, t bind.RRType) ([]bind.RR, error) {
	rrs, err := g.MetaClient.Lookup(ctx, name, t)
	if strings.Contains(name, ".nsm.") && g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return rrs, err
}

// TestFlushCacheSupersedesInFlightFindNSM: a FindNSM whose mapping walk
// read a record before an update, and finishes after the flush the update
// caused, returns the binding it asked for but must not leave that record
// in the meta-cache — the next FindNSM walks again and sees the update
// rather than the stale record for its 600 s TTL.
func TestFlushCacheSupersedesInFlightFindNSM(t *testing.T) {
	w := newWorld(t, world.Config{Clock: simtime.NewFakeClock(time.Unix(0, 0))})
	gm := &gatedMeta{MetaClient: w.MetaHRPCClient(), entered: make(chan struct{}), release: make(chan struct{})}
	h := core.New(gm, core.Config{MetaZone: world.MetaZone, Clock: w.Clock})
	h.LinkHostResolver(world.NSBind, w.BindHostNSM)
	ctx := context.Background()
	name := world.DesiredServiceName()

	gm.armed.Store(true)
	type result struct {
		b   hrpc.Binding
		err error
	}
	first := make(chan result, 1)
	go func() {
		b, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
		first <- result{b, err}
	}()
	<-gm.entered

	// The NSM moves to another port (registered through a different HNS
	// instance), and the change reaches h as a flush.
	if err := w.HNS.UnregisterNSM(ctx, "binding-bind-1", world.NSBind, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	if err := w.HNS.RegisterNSM(ctx, core.NSMInfo{
		Name: "binding-bind-1", NameService: world.NSBind, QueryClass: qclass.HRPCBinding,
		Host: world.HostNSM, HostContext: world.CtxHostB, Port: "moved", Suite: hrpc.SuiteSunRPC,
	}); err != nil {
		t.Fatal(err)
	}
	h.FlushCache()
	close(gm.release)

	got := <-first
	if got.err != nil || !strings.HasSuffix(got.b.Addr, ":"+world.PortBindingBind) {
		t.Fatalf("in-flight FindNSM = %v, %v; want the pre-update binding", got.b, got.err)
	}
	b, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
	if err != nil || !strings.HasSuffix(b.Addr, ":moved") {
		t.Fatalf("FindNSM after flush = %v, %v; a superseded walk's result was cached", b, err)
	}
}

// TestUnregisteredContextIsNeverCached: an HNS instance with no push
// subscription that was told a context does not exist sees the context as
// soon as it is registered elsewhere — no flush, no NOTIFY, no TTL to wait
// out, because a NotFound is never cached.
func TestUnregisteredContextIsNeverCached(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	h := w.NewHNS(core.Config{MetaZone: world.MetaZone})
	name := names.Must("late-context", "anything")
	if _, err := h.FindNSM(ctx, name, qclass.HRPCBinding); !errors.Is(err, core.ErrNoSuchContext) {
		t.Fatalf("FindNSM before registration = %v, want ErrNoSuchContext", err)
	}
	if err := w.HNS.RegisterContext(ctx, "late-context", world.NSBind); err != nil {
		t.Fatal(err)
	}
	b, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
	if err != nil {
		t.Fatalf("FindNSM after registration: %v", err)
	}
	if b.Addr != "june:"+world.PortBindingBind {
		t.Fatalf("FindNSM after registration = %v", b)
	}
}
