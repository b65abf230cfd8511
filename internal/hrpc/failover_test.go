package hrpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"hns/internal/health"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// failoverEnv is a two-replica world behind a chaos plan: raw echo
// servers at a:1 and b:1 on simulated UDP, dialed through a Plan-driven
// chaos transport, with breakers on a fake clock.
type failoverEnv struct {
	plan *transport.Plan
	tr   transport.Transport
	clk  *simtime.FakeClock
	c    *Client
	reg  *metrics.Registry
}

const (
	foPrimary   = "a:1"
	foSecondary = "b:1"
)

func newFailoverEnv(t *testing.T) *failoverEnv {
	t.Helper()
	n := transport.NewNetwork()
	inner, err := n.Transport("udp")
	if err != nil {
		t.Fatal(err)
	}
	echo := func(ctx context.Context, req []byte) ([]byte, error) { return req, nil }
	for _, addr := range []string{foPrimary, foSecondary} {
		ln, err := inner.Listen(addr, echo)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
	}
	plan := transport.NewPlan(1987)
	chaos := transport.NewChaos(inner, "udp-chaos", plan)
	n.Register(chaos)

	clk := simtime.NewFakeClock(time.Unix(563328000, 0))
	reg := metrics.NewRegistry()
	c := NewClient(n)
	c.FreshConn = true
	c.Metrics = reg
	c.Health = health.Config{
		Threshold: 3,
		Cooldown:  10 * time.Second,
		Clock:     clk,
		Metrics:   reg,
		Service:   "test",
	}
	return &failoverEnv{plan: plan, tr: chaos, clk: clk, c: c, reg: reg}
}

// call runs one roundTrip and reports the exact simulated cost charged.
func (e *failoverEnv) call(ctx context.Context) (time.Duration, error) {
	var callErr error
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		_, _, callErr = e.c.roundTrip(ctx, e.tr, foPrimary, []byte("ping"), budgetState{})
		return nil
	})
	if err != nil {
		return cost, err
	}
	return cost, callErr
}

// openBreaker drives the primary's breaker open with zero-budget calls
// against a blackholed endpoint (each charges nothing and records one
// consecutive failure).
func (e *failoverEnv) openBreaker(t *testing.T, ctx context.Context) {
	t.Helper()
	e.plan.Blackhole(foPrimary)
	for i := 0; i < 3; i++ {
		cost, err := e.call(ctx)
		if err == nil || cost != 0 {
			t.Fatalf("breaker-opening call %d: cost %v err %v; want free failure", i, cost, err)
		}
	}
	if st := e.c.breakers().Breaker(foPrimary).State(); st != health.Open {
		t.Fatalf("breaker state after 3 failures = %v, want Open", st)
	}
}

// TestFailoverSimtimeAccounting asserts, case by case, that the retry /
// failover / breaker machinery charges the caller's simtime meter
// exactly the wait a real caller would have sat through — no more (the
// budget is a hard cap) and no less (every loss detection costs its
// backoff).
func TestFailoverSimtimeAccounting(t *testing.T) {
	rtt := simtime.RTTUDP
	rto := simtime.RetransmitTimeout

	cases := []struct {
		name string
		// arrange prepares faults, policy, and breaker state; it may use
		// e.call for pre-conditioning traffic.
		arrange func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context
		// one measured call:
		wantCost time.Duration
		wantOK   bool
		wantIs   []error // errors.Is targets the failure must match
		wantNot  []error // ... and must not
	}{
		{
			name: "cancelled-context-charges-nothing",
			arrange: func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context {
				e.plan.Blackhole(foPrimary)
				e.c.Policy = RetryPolicy{Budget: 100 * simtime.RetransmitTimeout}
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				return cctx
			},
			wantCost: 0,
			wantIs:   []error{transport.ErrInjectedLoss},
			wantNot:  []error{ErrCallTimeout},
		},
		{
			name: "blackout-exhausts-budget-exactly",
			arrange: func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context {
				e.plan.Blackhole(foPrimary)
				e.c.Policy = RetryPolicy{Budget: 600 * time.Millisecond}
				return ctx
			},
			// 250ms first wait, then the 500ms backoff is capped to the
			// remaining 350ms: exactly the budget, never more.
			wantCost: 600 * time.Millisecond,
			wantIs:   []error{ErrCallTimeout, transport.ErrInjectedLoss},
		},
		{
			name: "refused-primary-fails-over-free",
			arrange: func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context {
				e.plan.Kill(foPrimary)
				e.c.Policy = RetryPolicy{Budget: 750 * time.Millisecond}
				e.c.SetReplicas(foPrimary, foSecondary)
				return ctx
			},
			// Connection-refused is detected immediately: the failover
			// costs one round trip to the replica and nothing else.
			wantCost: rtt,
			wantOK:   true,
		},
		{
			name: "blackholed-primary-fails-over-after-one-timeout",
			arrange: func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context {
				e.plan.Blackhole(foPrimary)
				e.c.Policy = RetryPolicy{Budget: 750 * time.Millisecond}
				e.c.SetReplicas(foPrimary, foSecondary)
				return ctx
			},
			// Silent loss costs the caller one retransmission timeout to
			// detect, then the replica answers.
			wantCost: rto + rtt,
			wantOK:   true,
		},
		{
			name: "all-replicas-dead-fails-fast-free",
			arrange: func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context {
				e.c.SetReplicas(foPrimary, foSecondary)
				e.plan.Kill(foPrimary)
				e.plan.Kill(foSecondary)
				// Three free calls open both breakers (one consecutive
				// failure per endpoint per call).
				for i := 0; i < 3; i++ {
					if cost, err := e.call(ctx); err == nil || cost != 0 {
						t.Fatalf("pre-call %d: cost %v err %v; want free failure", i, cost, err)
					}
				}
				return ctx
			},
			wantCost: 0,
			wantIs:   []error{ErrCallTimeout, health.ErrNoLiveEndpoint},
		},
		{
			name: "open-breakers-refuse-without-charge",
			arrange: func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context {
				e.openBreaker(t, ctx)
				return ctx
			},
			wantCost: 0,
			wantIs:   []error{ErrCallTimeout},
		},
		{
			name: "half-open-probe-failure-charges-one-timeout",
			arrange: func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context {
				e.openBreaker(t, ctx)
				e.clk.Advance(10 * time.Second) // serve the cooldown
				e.c.Policy = RetryPolicy{Budget: 250 * time.Millisecond}
				return ctx
			},
			// The probe is admitted, lost, and charged exactly one base
			// timeout; the breaker reopens, so the call then fails fast.
			wantCost: rto,
			wantIs:   []error{ErrCallTimeout, transport.ErrInjectedLoss},
		},
		{
			name: "half-open-probe-success-restores-service",
			arrange: func(t *testing.T, e *failoverEnv, ctx context.Context) context.Context {
				e.openBreaker(t, ctx)
				e.plan.Recover(foPrimary)
				e.clk.Advance(10 * time.Second)
				return ctx
			},
			wantCost: rtt,
			wantOK:   true,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			e := newFailoverEnv(t)
			ctx := tc.arrange(t, e, context.Background())

			cost, err := e.call(ctx)
			if tc.wantOK {
				if err != nil {
					t.Fatalf("call failed: %v", err)
				}
			} else if err == nil {
				t.Fatal("call succeeded, want failure")
			}
			if cost != tc.wantCost {
				t.Fatalf("charged %v, want exactly %v", cost, tc.wantCost)
			}
			for _, target := range tc.wantIs {
				if !errors.Is(err, target) {
					t.Errorf("errors.Is(err, %v) = false; err = %v", target, err)
				}
			}
			for _, target := range tc.wantNot {
				if errors.Is(err, target) {
					t.Errorf("errors.Is(err, %v) = true; err = %v", target, err)
				}
			}
		})
	}
}

// TestFailoverRestoresPrimaryAfterProbe exercises the full arc: primary
// dies, traffic fails over, primary recovers, the half-open probe
// restores it — with the caller charged only for the waits it actually
// sat through.
func TestFailoverRestoresPrimaryAfterProbe(t *testing.T) {
	e := newFailoverEnv(t)
	ctx := context.Background()
	e.c.Policy = RetryPolicy{Budget: 750 * time.Millisecond}
	e.c.SetReplicas(foPrimary, foSecondary)

	// Healthy baseline.
	if cost, err := e.call(ctx); err != nil || cost != simtime.RTTUDP {
		t.Fatalf("baseline: cost %v err %v", cost, err)
	}

	// Kill the primary: three failovers open its breaker...
	e.plan.Kill(foPrimary)
	for i := 0; i < 3; i++ {
		if cost, err := e.call(ctx); err != nil || cost != simtime.RTTUDP {
			t.Fatalf("failover call %d: cost %v err %v", i, cost, err)
		}
	}
	// ...after which calls go straight to the secondary.
	if st := e.c.breakers().Breaker(foPrimary).State(); st != health.Open {
		t.Fatalf("primary breaker = %v, want Open", st)
	}
	if cost, err := e.call(ctx); err != nil || cost != simtime.RTTUDP {
		t.Fatalf("steady-state failover: cost %v err %v", cost, err)
	}
	if got := e.reg.Counter("hrpc_client_failovers_total").Value(); got != 4 {
		t.Fatalf("hrpc_client_failovers_total = %d, want 4", got)
	}

	// Primary recovers; after the cooldown the next call probes it.
	e.plan.Recover(foPrimary)
	e.clk.Advance(10 * time.Second)
	if cost, err := e.call(ctx); err != nil || cost != simtime.RTTUDP {
		t.Fatalf("probe call: cost %v err %v", cost, err)
	}
	if st := e.c.breakers().Breaker(foPrimary).State(); st != health.Closed {
		t.Fatalf("primary breaker after successful probe = %v, want Closed", st)
	}
	// And no further failovers: traffic is back on the primary.
	if got := e.reg.Counter("hrpc_client_failovers_total").Value(); got != 4 {
		t.Fatalf("failovers after recovery = %d, want still 4", got)
	}
}
