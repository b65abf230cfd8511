package hrpc

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"hns/internal/admission"
	"hns/internal/health"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// TestRawBudgetRoundTrip pins the raw header's budget field: flagged,
// rounded up to a whole millisecond (a small positive budget never reads
// as expired), clamped into [0, 2³²−1] ms, and absent — flags 0, no
// field — for a call without one.
func TestRawBudgetRoundTrip(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want time.Duration
	}{
		{0, 0},
		{time.Millisecond, time.Millisecond},
		{1500 * time.Microsecond, 2 * time.Millisecond},
		{time.Microsecond, time.Millisecond},
		{-time.Second, 0},
		{500 * time.Hour, 500 * time.Hour},
		{100 * 24 * time.Hour, math.MaxUint32 * time.Millisecond},
	}
	h := CallHeader{Program: 300000, Version: 1, Procedure: 8}
	bare, _ := RawControl{}.EncodeCall(h, []byte("args"))
	if len(bare) != 6+len("args") || bare[0] != 0 {
		t.Fatalf("budgetless call = % x, want flags 0 and a 6-byte header", bare)
	}
	for _, tc := range cases {
		h.Budget, h.HasBudget = tc.in, true
		frame, err := RawControl{}.EncodeCall(h, []byte("args"))
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := RawControl{}.DecodeCall(frame)
		if err != nil || !got.HasBudget || got.Budget != tc.want || string(rest) != "args" {
			t.Errorf("budget %v: got (%+v, %q, %v), want budget %v", tc.in, got, rest, err, tc.want)
		}
	}
}

// TestOverloadedErrCodec pins the raw reply code table: an admission
// shed keeps its reason and whole-millisecond retry-after, an expiry is
// a bare code, and a malformed or unknown code is a bad frame.
func TestOverloadedErrCodec(t *testing.T) {
	ov := ReplyHeader{Code: ReplyOverloaded, Err: "rate", RetryAfter: 75*time.Millisecond + 900*time.Microsecond}
	frame, err := RawControl{}.EncodeReply(ov, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RawControl{}.DecodeReply(frame)
	if err != nil || got.Code != ReplyOverloaded || got.Err != "rate" || got.RetryAfter != 75*time.Millisecond {
		t.Fatalf("overloaded round trip: %+v, %v", got, err)
	}
	frame, _ = RawControl{}.EncodeReply(ReplyHeader{Code: ReplyExpired}, nil)
	if got, _, err := (RawControl{}).DecodeReply(frame); err != nil || got.Code != ReplyExpired || len(frame) != 1 {
		t.Fatalf("expired round trip: % x → %+v, %v", frame, got, err)
	}
	for _, bad := range [][]byte{
		{byte(ReplyOverloaded)},             // retry-after missing
		{byte(ReplyOverloaded), 0x80, 0x00}, // overlong uvarint
		{byte(ReplyExpired), 'x'},           // expiry carries nothing
		{4},                                 // no such code
	} {
		if _, _, err := (RawControl{}).DecodeReply(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeReply(% x) = %v, want ErrBadFrame", bad, err)
		}
	}
}

// TestRawCallRejectsMalformedHeaders: unknown flag bits (including the
// bit reserved for a trace id), overlong uvarints and values above
// 2³²−1 are bad frames, never misread headers.
func TestRawCallRejectsMalformedHeaders(t *testing.T) {
	for _, bad := range [][]byte{
		{},
		{0x02, 1, 1, 1},                      // reserved trace bit
		{0x80, 1, 1, 1},                      // unknown bit
		{0x00, 0x81, 0x00, 1, 1},             // overlong program
		{0x00, 0x80, 0x80, 0x80, 0x80, 0x10}, // program 2³²
		{0x00, 1, 1},                         // proc missing
		{0x01, 1, 1, 1},                      // budget flagged, absent
	} {
		if _, _, err := (RawControl{}).DecodeCall(bad); !errors.Is(err, ErrBadFrame) {
			t.Errorf("DecodeCall(% x) = %v, want ErrBadFrame", bad, err)
		}
	}
}

// TestRetryRespectsContextDeadline is the regression for the
// budget-vs-deadline bug: a call with 100 ms of context budget must not
// schedule retry waits beyond it, even when the policy's own budget is
// much larger. Before the clamp, this call charged the full 600 ms.
func TestRetryRespectsContextDeadline(t *testing.T) {
	e := newFailoverEnv(t)
	e.plan.Blackhole(foPrimary)
	e.c.Policy = RetryPolicy{Budget: 600 * time.Millisecond}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	cost, err := e.call(ctx)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if cost > 100*time.Millisecond {
		t.Fatalf("charged %v of sim time past a 100ms context budget", cost)
	}
	if cost < 50*time.Millisecond {
		t.Fatalf("charged only %v; the clamp should spend the caller's budget, not skip the wait", cost)
	}
}

// TestPropagatedBudgetClampsRetryExactly pins the deterministic variant:
// an explicit 100 ms propagated budget clamps the 600 ms retry budget to
// exactly 100 ms of charged sim time.
func TestPropagatedBudgetClampsRetryExactly(t *testing.T) {
	e := newFailoverEnv(t)
	e.plan.Blackhole(foPrimary)
	e.c.Policy = RetryPolicy{Budget: 600 * time.Millisecond}

	ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
	m := simtime.From(ctx)
	bs := budgetState{active: true, total: 100 * time.Millisecond, spent: simtime.Start(ctx)}
	before := m.Elapsed()
	_, _, err := e.c.roundTrip(ctx, e.tr, foPrimary, []byte("ping"), bs)
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if got := m.Elapsed() - before; got != 100*time.Millisecond {
		t.Fatalf("charged %v, want exactly the 100ms propagated budget", got)
	}
	simtime.Charge(ctx, time.Second)
	if got := bs.remaining(); got != 0 {
		t.Fatalf("overspent remaining = %v, want it clamped at 0", got)
	}
}

// deadlineEnv is a full client/server stack whose server records the
// budget each call arrived with: a raw-suite HRPC server on simulated
// UDP behind a chaos plan.
type deadlineEnv struct {
	plan *transport.Plan
	c    *Client
	b    Binding

	mu      sync.Mutex
	budgets map[string][]time.Duration // listen addr → received budgets
}

var deadlineProc = Procedure{
	Name: "DeadlineEcho", ID: 1,
	Args:  marshal.TStruct(marshal.TString),
	Ret:   marshal.TStruct(marshal.TString),
	Style: marshal.StyleNone,
}

const (
	dlPrimary   = "dl-a:1"
	dlSecondary = "dl-b:1"
)

func newDeadlineEnv(t *testing.T, admit *admission.Controller) *deadlineEnv {
	t.Helper()
	n := transport.NewNetwork()
	suite := Suite{Transport: "udp", DataRep: "xdr", Control: "raw"}
	e := &deadlineEnv{budgets: make(map[string][]time.Duration)}
	for _, addr := range []string{dlPrimary, dlSecondary} {
		addr := addr
		s := NewServer("dl@"+addr, 7200, 1)
		s.Metrics = metrics.NewRegistry()
		if admit != nil {
			s.EnableAdmission(admit)
		}
		s.Register(deadlineProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
			b, _ := BudgetFrom(ctx)
			e.mu.Lock()
			e.budgets[addr] = append(e.budgets[addr], b)
			e.mu.Unlock()
			return args, nil
		})
		ln, b, err := Serve(n, s, suite, "host", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		if addr == dlPrimary {
			e.b = b
		}
	}
	e.plan = transport.NewPlan(1987)
	n.Register(transport.NewChaos(mustTransport(t, n, "udp"), "udp-chaos", e.plan))
	e.b.Transport = "udp-chaos"

	reg := metrics.NewRegistry()
	c := NewClient(n)
	c.FreshConn = true
	c.Metrics = reg
	c.Health = health.Config{
		Threshold: 3,
		Cooldown:  10 * time.Second,
		Clock:     simtime.NewFakeClock(time.Unix(563328000, 0)),
		Metrics:   reg,
		Service:   "dl-test",
	}
	e.c = c
	return e
}

func mustTransport(t *testing.T, n *transport.Network, name string) transport.Transport {
	t.Helper()
	tr, err := n.Transport(name)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func (e *deadlineEnv) received(addr string) []time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]time.Duration(nil), e.budgets[addr]...)
}

// TestFailoverCarriesRemainingBudget is the deadline-propagation
// failover suite: when the primary is blackholed and the call retries on
// the secondary, the secondary must see the budget that REMAINS after
// the charged detection wait — not the budget the call started with.
func TestFailoverCarriesRemainingBudget(t *testing.T) {
	rto := simtime.RetransmitTimeout // 250ms: the loss-detection wait

	cases := []struct {
		name       string
		budget     time.Duration
		arrange    func(e *deadlineEnv)
		wantErr    error           // nil means the call must succeed
		wantAt     string          // endpoint that must have served it
		wantBudget []time.Duration // budgets that endpoint must have seen
	}{
		{
			name:   "healthy-primary-sees-full-budget",
			budget: 600 * time.Millisecond,
			arrange: func(e *deadlineEnv) {
				e.c.SetReplicas(dlPrimary, dlSecondary)
			},
			wantAt:     dlPrimary,
			wantBudget: []time.Duration{600 * time.Millisecond},
		},
		{
			name:   "blackholed-primary-secondary-sees-remainder",
			budget: 600 * time.Millisecond,
			arrange: func(e *deadlineEnv) {
				e.plan.Blackhole(dlPrimary)
				e.c.SetReplicas(dlPrimary, dlSecondary)
			},
			// One silent loss costs rto to detect; the retry must carry
			// 600-250 = 350ms, not 600.
			wantAt:     dlSecondary,
			wantBudget: []time.Duration{600*time.Millisecond - rto},
		},
		{
			name:   "killed-primary-fails-over-without-spending-budget",
			budget: 600 * time.Millisecond,
			arrange: func(e *deadlineEnv) {
				e.plan.Kill(dlPrimary)
				e.c.SetReplicas(dlPrimary, dlSecondary)
			},
			// Connection-refused is free: the secondary sees the full
			// budget.
			wantAt:     dlSecondary,
			wantBudget: []time.Duration{600 * time.Millisecond},
		},
		{
			name:   "exhausted-budget-is-shed-by-the-server",
			budget: 0,
			arrange: func(e *deadlineEnv) {
				e.c.SetReplicas(dlPrimary, dlSecondary)
			},
			wantErr:    ErrBudgetExpired,
			wantAt:     dlPrimary,
			wantBudget: nil, // the handler must never run
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e := newDeadlineEnv(t, nil)
			tc.arrange(e)
			e.c.Policy = RetryPolicy{Budget: 750 * time.Millisecond}

			ctx := WithBudget(simtime.WithMeter(context.Background(), simtime.NewMeter()), tc.budget)
			_, err := e.c.Call(ctx, e.b, deadlineProc, marshal.StructV(marshal.Str("ping")))
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("call failed: %v", err)
				}
			} else if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			got := e.received(tc.wantAt)
			if len(got) != len(tc.wantBudget) {
				t.Fatalf("%s saw budgets %v, want %v", tc.wantAt, got, tc.wantBudget)
			}
			for i := range got {
				if got[i] != tc.wantBudget[i] {
					t.Fatalf("%s budget[%d] = %v, want %v", tc.wantAt, i, got[i], tc.wantBudget[i])
				}
			}
		})
	}
}

// TestLegacyClientUnaffected: a caller with no budget sends a call
// header with flags 0 and no budget field, and the handler finds no
// budget in its context.
func TestLegacyClientUnaffected(t *testing.T) {
	n := transport.NewNetwork()
	s := NewServer("legacy", 7200, 1)
	s.Metrics = metrics.NewRegistry()
	hadBudget := true
	s.Register(deadlineProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		_, hadBudget = BudgetFrom(ctx)
		return args, nil
	})
	rep, err := marshal.Lookup(SuiteRaw.DataRep)
	if err != nil {
		t.Fatal(err)
	}
	serve := s.Handler(rep, RawControl{})
	var flags []byte
	ln, err := mustTransport(t, n, SuiteRaw.Transport).Listen("legacy:1", func(ctx context.Context, req []byte) ([]byte, error) {
		flags = append(flags, req[0])
		return serve(ctx, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	c := NewClient(n)
	c.Metrics = metrics.NewRegistry()
	defer c.Close()
	ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
	if _, err := c.Call(ctx, SuiteRaw.Bind("h", "legacy:1", 7200, 1), deadlineProc, marshal.StructV(marshal.Str("ping"))); err != nil {
		t.Fatal(err)
	}
	if len(flags) != 1 || flags[0] != 0 {
		t.Fatalf("call header flags %v, want [0]", flags)
	}
	if hadBudget {
		t.Fatal("handler of a budgetless call found a budget in its context")
	}
}

// TestOverloadIsBackpressureNotFailure: an admission-shed reply surfaces
// as ErrOverloaded, leaves the breaker Closed, and installs the server's
// retry-after as a backoff window on the SAME breaker entry (no second
// backoff table).
func TestOverloadIsBackpressureNotFailure(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	admit := admission.New(admission.Config{
		Rate: 1, Burst: 1, RetryAfter: 50 * time.Millisecond,
		Clock: clk, Metrics: metrics.NewRegistry(), Server: "dl",
	})
	e := newDeadlineEnv(t, admit)
	e.c.Health.Clock = clk // share the clock so backoff windows expire together
	// Reuse the connection: the sim transport mints one peer identity per
	// dial, and this test needs both calls in the same token bucket.
	e.c.FreshConn = false

	ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
	call := func() error {
		_, err := e.c.Call(ctx, e.b, deadlineProc, marshal.StructV(marshal.Str("ping")))
		return err
	}

	if err := call(); err != nil {
		t.Fatalf("first call: %v", err)
	}
	err := call()
	var bp *BackpressureError
	if !errors.As(err, &bp) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second call: %v, want BackpressureError", err)
	}
	if bp.RetryAfter != 50*time.Millisecond || bp.Reason != "rate" {
		t.Fatalf("backpressure details: %+v", bp)
	}

	br := e.c.breakers().Breaker(dlPrimary)
	if st := br.State(); st != health.Closed {
		t.Fatalf("breaker state = %v, want Closed (overload is not failure)", st)
	}
	if got := br.BackoffRemaining(); got != 50*time.Millisecond {
		t.Fatalf("backoff window = %v, want 50ms", got)
	}

	// During the window the endpoint is out of rotation: fail fast, free.
	if err := call(); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call inside backoff window: %v, want fail-fast CallTimeout", err)
	}

	// Window passes (and the token bucket refills): service resumes.
	clk.Advance(time.Second)
	if err := call(); err != nil {
		t.Fatalf("call after backoff window: %v", err)
	}
}

// TestAdmissionKeysOnPeer: two clients dialing the same server get
// separate token buckets, keyed by the transport's peer identity.
func TestAdmissionKeysOnPeer(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	admit := admission.New(admission.Config{
		Rate: 0.001, Burst: 1, Clock: clk, Metrics: metrics.NewRegistry(), Server: "peers",
	})
	n := transport.NewNetwork()
	s := NewServer("peers", 7201, 1)
	s.Metrics = metrics.NewRegistry()
	s.EnableAdmission(admit)
	s.Register(deadlineProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return args, nil
	})
	ln, b, err := Serve(n, s, Suite{Transport: "udp", DataRep: "xdr", Control: "raw"}, "host", "peers:1")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	call := func(c *Client) error {
		ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
		_, err := c.Call(ctx, b, deadlineProc, marshal.StructV(marshal.Str("hi")))
		return err
	}
	newPeer := func() *Client {
		c := NewClient(n)
		c.Metrics = metrics.NewRegistry()
		return c
	}

	// Each fresh connection is a distinct peer with its own burst-of-1
	// bucket: client A's second call sheds, client B's first is admitted.
	a, b2 := newPeer(), newPeer()
	if err := call(a); err != nil {
		t.Fatalf("peer A first call: %v", err)
	}
	if err := call(a); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("peer A second call: %v, want ErrOverloaded", err)
	}
	if err := call(b2); err != nil {
		t.Fatalf("peer B first call: %v", err)
	}
	if admit.Clients() < 2 {
		t.Fatalf("admission saw %d clients, want >= 2 distinct peers", admit.Clients())
	}
}
