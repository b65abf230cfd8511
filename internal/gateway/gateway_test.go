package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hns/internal/admission"
	"hns/internal/core"
	"hns/internal/health"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// stubFinder is the backend behind the gateway's upstream: it answers a
// fixed binding, fails a designated context, and records the budget each
// call arrived with.
type stubFinder struct {
	mu      sync.Mutex
	budgets []time.Duration

	// hold, when non-nil, parks every call until it is closed: each call
	// announces itself on entered first, and peak is the high-water mark
	// of calls parked at once.
	hold           chan struct{}
	entered        chan struct{}
	inflight, peak int
}

var stubBinding = hrpc.Binding{
	Host: "nsm-host", Addr: "nsm:1", Transport: "udp",
	DataRep: "xdr", Control: "sunrpc", Program: 200100, Version: 10,
}

// forwarded is stubBinding as the gateway's callers receive it: the HNS
// program sends no host name, so Host arrives empty and the rest is kept.
var forwarded = func() hrpc.Binding { b := stubBinding; b.Host = ""; return b }()

// noBudget is what stubFinder records for a call whose context carries
// no budget at all (as opposed to an exhausted one).
const noBudget = time.Duration(-1)

func (s *stubFinder) FindContextNSM(ctx context.Context, hnsContext, qc string) (hrpc.Binding, error) {
	b, ok := hrpc.BudgetFrom(ctx)
	if !ok {
		b = noBudget
	}
	s.mu.Lock()
	s.budgets = append(s.budgets, b)
	if s.hold != nil {
		s.inflight++
		s.peak = max(s.peak, s.inflight)
	}
	s.mu.Unlock()
	if s.hold != nil {
		s.entered <- struct{}{}
		<-s.hold
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}
	if hnsContext == "ghost" {
		return hrpc.Binding{}, fmt.Errorf("no such context %q", hnsContext)
	}
	return stubBinding, nil
}

func (s *stubFinder) recorded() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.budgets...)
}

// gwEnv is client → gateway → backend, all on one simulated network.
type gwEnv struct {
	net   *transport.Network
	stub  *stubFinder
	gw    *Gateway
	gwB   hrpc.Binding
	front *core.RemoteHNS
}

func newGWEnv(t *testing.T, cfg Config) *gwEnv {
	t.Helper()
	return newGWEnvOn(t, cfg, hrpc.SuiteRaw, "backend:hns", "gw:hns")
}

// newGWEnvOn is newGWEnv with both hops over suite, at the given addresses.
func newGWEnvOn(t *testing.T, cfg Config, suite hrpc.Suite, backendAddr, gwAddr string) *gwEnv {
	t.Helper()
	n := transport.NewNetwork()
	stub := &stubFinder{}

	backend := core.NewFinderServer(stub, "hns-backend")
	backend.Metrics = metrics.NewRegistry()
	bln, bb, err := hrpc.Serve(n, backend, suite, "backend", backendAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bln.Close() })

	up := hrpc.NewClient(n)
	up.Metrics = metrics.NewRegistry()
	t.Cleanup(func() { up.Close() })
	gw := New(up, bb, cfg)
	gw.Server().Metrics = metrics.NewRegistry()
	gln, gb, err := hrpc.Serve(n, gw.Server(), suite, "gw", gwAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gln.Close() })

	fc := hrpc.NewClient(n)
	fc.Metrics = metrics.NewRegistry()
	t.Cleanup(func() { fc.Close() })
	return &gwEnv{net: n, stub: stub, gw: gw, gwB: gb, front: core.NewRemoteHNS(fc, gb)}
}

func TestGatewayForwards(t *testing.T) {
	e := newGWEnv(t, Config{})
	ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
	b, err := e.front.FindNSM(ctx, names.Must("svc", "a"), qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	if b != forwarded {
		t.Fatalf("forwarded binding = %#v, want %#v", b, forwarded)
	}
	// A batch through the gateway: per-slot results, one failing slot.
	res, err := e.front.FindNSMBatch(ctx, []core.NameQuery{
		{Name: names.Must("svc", "a"), QueryClass: qclass.HRPCBinding},
		{Name: names.Must("ghost", "x"), QueryClass: qclass.HRPCBinding},
		{Name: names.Must("svc", "b"), QueryClass: qclass.HRPCBinding},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[0].Binding != forwarded {
		t.Fatalf("slot 0 = %+v", res[0])
	}
	if res[1].Err == nil {
		t.Fatal("ghost slot resolved through gateway")
	}
	if res[2].Err != nil || res[2].Binding != forwarded {
		t.Fatalf("slot 2 = %+v", res[2])
	}
}

func tcpWireBytes(dir string) int64 {
	return metrics.Default().Counter(metrics.Labels("transport_bytes_total",
		"transport", "tcp-net", "dir", dir)).Value()
}

// framesTotal sums every transport_frames_total series in the process
// registry.
func framesTotal() int64 {
	var total int64
	for _, c := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "transport_frames_total") {
			total += c.Value
		}
	}
	return total
}

// TestGatewayWireBytes is the per-hop twin of core's TestHNSWireBytes: over
// real TCP a warm FindNSM through the gateway is two exchanges, each
// carrying the raw envelope (6 bytes), the context and the query class
// out, and the packed six-field binding plus 2 plus the one-byte keep back
// (0: the stub backend cannot promise, so neither hop watches):
// 2 × (27 + 1) = 2 × 28 bytes. The individual name and the NSM's host
// name cross neither hop.
func TestGatewayWireBytes(t *testing.T) {
	e := newGWEnvOn(t, Config{}, hrpc.SuiteRawNet, "127.0.0.1:0", "127.0.0.1:0")
	ctx := context.Background()
	name := names.Must("svc", "fiji.cs.washington.edu")
	if _, err := e.front.FindNSM(ctx, name, qclass.HRPCBinding); err != nil { // dial both hops
		t.Fatal(err)
	}
	tx0, rx0 := tcpWireBytes("tx"), tcpWireBytes("rx")
	if _, err := e.front.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	rep, err := marshal.Lookup(hrpc.SuiteRawNet.DataRep)
	if err != nil {
		t.Fatal(err)
	}
	b := stubBinding
	binding, err := rep.Append(nil, marshal.StructV(marshal.Str(b.Addr), marshal.Str(b.Transport),
		marshal.Str(b.DataRep), marshal.Str(b.Control), marshal.U32(b.Program), marshal.U32(b.Version)),
		marshal.TStruct(marshal.TString, marshal.TString, marshal.TString, marshal.TString,
			marshal.TUint32, marshal.TUint32))
	if err != nil {
		t.Fatal(err)
	}
	wantTx := int64(2 * (6 + 1 + len(name.Context) + 1 + len(qclass.HRPCBinding)))
	if tx := tcpWireBytes("tx") - tx0; tx != wantTx {
		t.Errorf("FindNSM through the gateway sent %d bytes, want %d (2 hops × (6 + context + query class))", tx, wantTx)
	}
	rx := tcpWireBytes("rx") - rx0
	if want := int64(2 * (2 + len(binding) + 1)); rx != want {
		t.Errorf("FindNSM through the gateway received %d bytes, want %d (2 hops × (2 + packed binding + keep))", rx, want)
	}
	if rx != 56 {
		t.Errorf("FindNSM through the gateway received %d bytes, want 56 (2 hops × 28)", rx)
	}
}

// TestGatewayCallerRefusesMalformedNames: a malformed name fails at the
// gateway's caller with names.ErrBadHNSName, moves no frame and never
// reaches the backend; in a batch it fills its own slot and the rest are
// forwarded.
func TestGatewayCallerRefusesMalformedNames(t *testing.T) {
	e := newGWEnv(t, Config{})
	ctx := context.Background()
	if _, err := e.front.FindNSM(ctx, names.Must("svc", "a"), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	bad := []names.Name{{Context: "svc", Individual: ""}, {Context: "has space", Individual: "a"}}
	for _, n := range bad {
		before := framesTotal()
		if _, err := e.front.FindNSM(ctx, n, qclass.HRPCBinding); !errors.Is(err, names.ErrBadHNSName) {
			t.Errorf("FindNSM(%+v) = %v, want ErrBadHNSName", n, err)
		}
		if got := framesTotal() - before; got != 0 {
			t.Errorf("FindNSM(%+v) moved %d frames, want 0", n, got)
		}
	}
	if got := len(e.stub.recorded()); got != 1 {
		t.Fatalf("backend served %d calls, want only the warm-up", got)
	}
	res, err := e.front.FindNSMBatch(ctx, []core.NameQuery{
		{Name: bad[0], QueryClass: qclass.HRPCBinding},
		{Name: names.Must("svc", "b"), QueryClass: qclass.HRPCBinding},
		{Name: bad[1], QueryClass: qclass.HRPCBinding},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res[0].Err, names.ErrBadHNSName) || !errors.Is(res[2].Err, names.ErrBadHNSName) {
		t.Errorf("malformed slots = %v, %v; want ErrBadHNSName", res[0].Err, res[2].Err)
	}
	if res[1].Err != nil || res[1].Binding != forwarded {
		t.Errorf("slot 1 = %#v, want %#v", res[1], forwarded)
	}
	if got := len(e.stub.recorded()); got != 2 {
		t.Fatalf("backend served %d calls, want the warm-up and the one well-formed slot", got)
	}
}

// TestGatewayShedsBatchFirst pins the priority policy: past the
// low-watermark (three quarters of the cap), batch (Low) calls shed with
// a typed Overloaded while single FindNSM (High) calls keep flowing.
func TestGatewayShedsBatchFirst(t *testing.T) {
	e := newGWEnv(t, Config{
		Admission: &admission.Config{
			MaxInflight: 4, // Low sheds past 3 in flight
			Metrics:     metrics.NewRegistry(),
		},
	})
	ctl := e.gw.admit
	// Occupy the low-priority headroom.
	for i := 0; i < 3; i++ {
		if err := ctl.Admit("occupier", admission.High); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { ctl.Done(); ctl.Done(); ctl.Done() }()

	ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
	_, err := e.front.FindNSMBatch(ctx, []core.NameQuery{
		{Name: names.Must("svc", "a"), QueryClass: qclass.HRPCBinding},
	})
	if !errors.Is(err, hrpc.ErrOverloaded) {
		t.Fatalf("batch past watermark: %v, want ErrOverloaded", err)
	}
	// The shed put the gateway endpoint in a client-side backoff window —
	// by design. A different caller's single (High) call is still served.
	fc2 := hrpc.NewClient(e.net)
	fc2.Metrics = metrics.NewRegistry()
	defer fc2.Close()
	front2 := core.NewRemoteHNS(fc2, e.gwB)
	if _, err := front2.FindNSM(ctx, names.Must("svc", "a"), qclass.HRPCBinding); err != nil {
		t.Fatalf("single call past watermark: %v, want admitted", err)
	}
}

// TestGatewayPropagatesBudget: a budget on the front call crosses the
// gateway and reaches the backend Finder — minus whatever the journey
// charged, never more than the original.
func TestGatewayPropagatesBudget(t *testing.T) {
	e := newGWEnv(t, Config{})
	const budget = 600 * time.Millisecond
	ctx := hrpc.WithBudget(simtime.WithMeter(context.Background(), simtime.NewMeter()), budget)
	if _, err := e.front.FindNSM(ctx, names.Must("svc", "a"), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	got := e.stub.recorded()
	if len(got) != 1 {
		t.Fatalf("backend saw %d calls, want 1", len(got))
	}
	if got[0] <= 0 || got[0] > budget {
		t.Fatalf("backend budget = %v, want in (0, %v]", got[0], budget)
	}
}

// TestGatewayWithoutPropagationSendsNoBudget: a caller without a budget
// sends none across the gateway — the gateway does not invent one, so
// the backend's handler finds no budget in its context.
func TestGatewayWithoutPropagationSendsNoBudget(t *testing.T) {
	e := newGWEnv(t, Config{})
	ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
	if _, err := e.front.FindNSM(ctx, names.Must("svc", "a"), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	if got := e.stub.recorded(); len(got) != 1 || got[0] != noBudget {
		t.Fatalf("backend budgets = %v, want [none]", got)
	}
}

// runCrowd releases callers concurrent single-name calls at a gateway
// whose backend parks every call it is handed. It waits until every
// caller is either parked in the backend or refused, checks every
// refusal is a typed Overloaded, then releases the backend and checks
// every parked call is served. It returns the parked (= served) and
// refused counts and the backend's concurrency high-water mark.
func runCrowd(t *testing.T, cfg Config, callers int) (served, refused, peak int) {
	t.Helper()
	e := newGWEnv(t, cfg)
	e.stub.hold = make(chan struct{})
	e.stub.entered = make(chan struct{}, callers)
	release := sync.OnceFunc(func() { close(e.stub.hold) })
	defer release()

	name := names.Must("svc", "a")
	results := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
			_, err := e.front.FindNSM(ctx, name, qclass.HRPCBinding)
			results <- err
		}()
	}
	for served+refused < callers {
		select {
		case <-e.stub.entered:
			served++
		case err := <-results:
			if !errors.Is(err, hrpc.ErrOverloaded) {
				t.Fatalf("call returned %v while the backend was held, want a typed Overloaded", err)
			}
			refused++
		}
	}
	release()
	for i := 0; i < served; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted call failed: %v", err)
		}
	}
	e.stub.mu.Lock()
	defer e.stub.mu.Unlock()
	return served, refused, e.stub.peak
}

// TestGatewayCrowdCappedAtMaxInflight is the front-door shed contract at
// fleet scale: of a 10,000-caller crowd against an in-flight cap of 64,
// exactly 64 reach the backend at once and never more, every other
// caller is refused with a typed Overloaded, and nobody is lost. The
// same crowd against an uncapped gateway is refused nothing. The
// backend is held on a channel, so the counts do not depend on timing.
func TestGatewayCrowdCappedAtMaxInflight(t *testing.T) {
	const callers, maxInflight = 10000, 64
	served, refused, peak := runCrowd(t, Config{
		Admission: &admission.Config{
			MaxInflight: maxInflight,
			// Below the wire's millisecond granularity, so a shed opens no
			// client-side backoff window and every caller reaches the gate.
			RetryAfter: time.Microsecond,
			Metrics:    metrics.NewRegistry(),
		},
	}, callers)
	if peak != maxInflight || served != maxInflight {
		t.Errorf("capped: %d calls reached the backend, high-water mark %d; want exactly %d",
			served, peak, maxInflight)
	}
	if refused < 1 || served+refused != callers {
		t.Errorf("capped: served %d + refused %d, want %d in total with refusals", served, refused, callers)
	}

	served, refused, peak = runCrowd(t, Config{}, callers)
	if refused != 0 || served != callers || peak != callers {
		t.Errorf("uncapped: served %d refused %d high-water mark %d; want all %d served at once",
			served, refused, peak, callers)
	}
}

// TestGatewayBackendListFailsOverInOrder builds the gateway through
// NewFailover, as hnsgw does for two -backend flags, and pins the
// ordered-failover contract: with
// both backends up every call lands on the first; with the first
// blackholed the second answers, only the first endpoint's breaker
// trips, and no call fails.
func TestGatewayBackendListFailsOverInOrder(t *testing.T) {
	const chaosName = "tcp-gw-chaos"
	addrs := []string{"backend1:hns", "backend2:hns"}
	n := transport.NewNetwork()
	inner, err := n.Transport("tcp")
	if err != nil {
		t.Fatal(err)
	}
	plan := transport.NewPlan(1987)
	n.Register(transport.NewChaos(inner, chaosName, plan))

	stubs := []*stubFinder{{}, {}}
	for i, addr := range addrs {
		srv := core.NewFinderServer(stubs[i], fmt.Sprintf("hns-backend%d", i+1))
		srv.Metrics = metrics.NewRegistry()
		ln, _, err := hrpc.Serve(n, srv, hrpc.SuiteRaw, "backend", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
	}

	reg := metrics.NewRegistry()
	up := hrpc.NewClient(n)
	up.Metrics = reg
	// A fake clock keeps the opened breaker open for the whole test.
	up.Health = health.Config{Clock: simtime.NewFakeClock(time.Unix(563328000, 0))}
	t.Cleanup(func() { up.Close() })
	suite := hrpc.SuiteRaw
	suite.Transport = chaosName
	gw := NewFailover(up, suite, addrs, Config{})
	gw.Server().Metrics = metrics.NewRegistry()
	gln, gb, err := hrpc.Serve(n, gw.Server(), hrpc.SuiteRaw, "gw", "gw:hns")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gln.Close() })
	fc := hrpc.NewClient(n)
	fc.Metrics = metrics.NewRegistry()
	t.Cleanup(func() { fc.Close() })
	front := core.NewRemoteHNS(fc, gb)

	resolve := func(stage string, calls int) {
		t.Helper()
		for i := 0; i < calls; i++ {
			ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
			b, err := front.FindNSM(ctx, names.Must("svc", fmt.Sprint(i)), qclass.HRPCBinding)
			if err != nil || b != forwarded {
				t.Fatalf("%s: call %d = %v, %v", stage, i, b, err)
			}
		}
	}
	served := func() (first, second int) { return len(stubs[0].recorded()), len(stubs[1].recorded()) }
	breaker := func(name, addr string) int64 {
		return reg.Counter(metrics.Labels(name, "service", "hrpc", "endpoint", addr)).Value()
	}

	resolve("both up", 5)
	if first, second := served(); first != 5 || second != 0 {
		t.Fatalf("both up: backends served %d and %d calls, want all 5 on the first", first, second)
	}

	plan.Blackhole(addrs[0])
	resolve("first blackholed", 8)
	if first, second := served(); first != 5 || second != 8 {
		t.Fatalf("first blackholed: backends served %d and %d calls, want 5 and 8", first, second)
	}
	if opens := breaker("breaker_opens_total", addrs[0]); opens != 1 {
		t.Errorf("first backend's breaker opened %d times, want 1", opens)
	}
	if state := reg.Gauge(metrics.Labels("breaker_state", "service", "hrpc", "endpoint", addrs[0])).Value(); state != int64(health.Open) {
		t.Errorf("first backend's breaker state = %d, want Open", state)
	}
	if opens, fails := breaker("breaker_opens_total", addrs[1]), breaker("breaker_failures_total", addrs[1]); opens != 0 || fails != 0 {
		t.Errorf("second backend's breaker: %d opens, %d failures; want none", opens, fails)
	}
}
