package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"hns/internal/simtime"
)

func TestFaultyInjectsLosses(t *testing.T) {
	n := NewNetwork()
	inner, _ := n.Transport("udp")
	flaky := NewFaulty(inner, "udp-flaky", DropEvery(2))
	n.Register(flaky)

	ln, err := flaky.Listen("h:1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The dial is operation 1 (odd: passes); calls are operations 2, 3, ...
	conn, err := flaky.Dial(context.Background(), "h:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Call i is operation i+1: even operations — odd i — are dropped.
	for i := 1; i <= 6; i++ {
		_, err := conn.Call(context.Background(), []byte("x"))
		if i%2 == 1 {
			if !errors.Is(err, ErrInjectedLoss) {
				t.Fatalf("call %d: want injected loss, got %v", i, err)
			}
		} else if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if flaky.Calls() != 7 {
		t.Fatalf("Calls = %d, want 7 (1 dial + 6 calls)", flaky.Calls())
	}
}

func TestFaultyInjectsDialFaults(t *testing.T) {
	// Regression: connection setup must be subject to injection too, so
	// dial-path error handling is testable.
	n := NewNetwork()
	inner, _ := n.Transport("udp")
	flaky := NewFaulty(inner, "udp-dialflaky", DropFirst(1))

	ln, err := flaky.Listen("h:2", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	if _, err := flaky.Dial(context.Background(), "h:2"); !errors.Is(err, ErrInjectedLoss) {
		t.Fatalf("first dial: want injected loss, got %v", err)
	}
	conn, err := flaky.Dial(context.Background(), "h:2")
	if err != nil {
		t.Fatalf("second dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Call(context.Background(), []byte("x")); err != nil {
		t.Fatalf("call after recovered dial: %v", err)
	}
}

func TestDropFirst(t *testing.T) {
	f := DropFirst(2)
	for n, want := range map[int]bool{1: true, 2: true, 3: false, 100: false} {
		if f(n) != want {
			t.Errorf("DropFirst(2)(%d) = %v", n, f(n))
		}
	}
	g := DropEvery(3)
	for n, want := range map[int]bool{1: false, 3: true, 6: true, 7: false} {
		if g(n) != want {
			t.Errorf("DropEvery(3)(%d) = %v", n, g(n))
		}
	}
	if DropEvery(0)(5) {
		t.Error("DropEvery(0) must never fail calls")
	}
}

func TestFaultyListenPassthrough(t *testing.T) {
	n := NewNetwork()
	inner, _ := n.Transport("udp")
	flaky := NewFaulty(inner, "udp-flaky2", DropEvery(0))
	ln, err := flaky.Listen("h:9", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The endpoint is reachable through the unwrapped transport too: the
	// failures are a client-path phenomenon.
	conn, err := inner.Dial(context.Background(), "h:9")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Call(context.Background(), []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func chaosPair(t *testing.T) (*Plan, *Faulty) {
	t.Helper()
	n := NewNetwork()
	inner, _ := n.Transport("udp")
	plan := NewPlan(42)
	chaos := NewChaos(inner, "udp-chaos", plan)
	for _, addr := range []string{"a:1", "b:1"} {
		ln, err := inner.Listen(addr, echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
	}
	return plan, chaos
}

func TestPlanKillRefusesDialAndCall(t *testing.T) {
	plan, chaos := chaosPair(t)
	ctx := context.Background()

	conn, err := chaos.Dial(ctx, "a:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	plan.Kill("a:1")
	if _, err := chaos.Dial(ctx, "a:1"); !errors.Is(err, ErrRefused) {
		t.Fatalf("dial to killed endpoint: want ErrRefused, got %v", err)
	}
	// An already-established connection fails too: the host is down.
	if _, err := conn.Call(ctx, []byte("x")); !errors.Is(err, ErrRefused) {
		t.Fatalf("call to killed endpoint: want ErrRefused, got %v", err)
	}
	// Other endpoints are unaffected.
	c2, err := chaos.Dial(ctx, "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Call(ctx, []byte("x")); err != nil {
		t.Fatalf("call to healthy endpoint: %v", err)
	}
}

func TestPlanBlackholeAndRecover(t *testing.T) {
	plan, chaos := chaosPair(t)
	ctx := context.Background()

	plan.Blackhole("a:1")
	if _, err := chaos.Dial(ctx, "a:1"); !errors.Is(err, ErrInjectedLoss) {
		t.Fatalf("dial to blackholed endpoint: want ErrInjectedLoss, got %v", err)
	}
	plan.Recover("a:1")
	conn, err := chaos.Dial(ctx, "a:1")
	if err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Call(ctx, []byte("x")); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
}

func TestPlanBurstIsFinite(t *testing.T) {
	plan, chaos := chaosPair(t)
	ctx := context.Background()

	conn, err := chaos.Dial(ctx, "a:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	plan.Burst("a:1", 3)
	for i := 0; i < 3; i++ {
		if _, err := conn.Call(ctx, []byte("x")); !errors.Is(err, ErrInjectedLoss) {
			t.Fatalf("burst call %d: want loss, got %v", i, err)
		}
	}
	if _, err := conn.Call(ctx, []byte("x")); err != nil {
		t.Fatalf("call after burst drained: %v", err)
	}
}

func TestPlanLatencyChargesSimtime(t *testing.T) {
	plan, chaos := chaosPair(t)
	plan.SetLatency("a:1", 40*time.Millisecond)

	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		conn, err := chaos.Dial(ctx, "a:1")
		if err != nil {
			return err
		}
		defer conn.Close()
		_, err = conn.Call(ctx, []byte("x"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Dial + call each pay the spike on top of the transport's own cost.
	if cost < 80*time.Millisecond {
		t.Fatalf("cost = %v, want ≥ 80ms of injected latency", cost)
	}
}

func TestPlanLossRateIsSeeded(t *testing.T) {
	outcomes := func(seed int64) []bool {
		n := NewNetwork()
		inner, _ := n.Transport("udp")
		plan := NewPlan(seed)
		chaos := NewChaos(inner, "udp-seeded", plan)
		ln, err := inner.Listen("a:1", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		conn, err := chaos.Dial(context.Background(), "a:1")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		plan.SetLossRate("a:1", 0.5)
		var out []bool
		for i := 0; i < 32; i++ {
			_, err := conn.Call(context.Background(), []byte("x"))
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(7), outcomes(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	var lost int
	for _, ok := range a {
		if !ok {
			lost++
		}
	}
	if lost == 0 || lost == len(a) {
		t.Fatalf("loss rate 0.5 produced %d/%d losses; want a mix", lost, len(a))
	}
}

func TestUnavailablePredicate(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrRefused, true},
		{ErrClosed, true},
		{ErrInjectedLoss, true},
		{errors.New("some app error"), false},
		{&RemoteError{Msg: "boom"}, false},
	}
	for _, c := range cases {
		if got := Unavailable(c.err); got != c.want {
			t.Errorf("Unavailable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
