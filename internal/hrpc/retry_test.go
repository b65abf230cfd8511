package hrpc

import (
	"context"
	"errors"
	"testing"
	"time"

	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// flakyNetwork builds a network with a lossy UDP variant registered as
// "udp-lossy" and an echo server reachable through it.
func flakyNetwork(t *testing.T, fail transport.FailFunc) (*transport.Network, Binding) {
	t.Helper()
	net := transport.NewNetwork()
	inner, err := net.Transport("udp")
	if err != nil {
		t.Fatal(err)
	}
	net.Register(transport.NewFaulty(inner, "udp-lossy", fail))

	s := NewServer("echo", 7100, 1)
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return args, nil
	})
	suite := Suite{Transport: "udp-lossy", DataRep: "xdr", Control: "sunrpc"}
	ln, b, err := Serve(net, s, suite, "h", "h:echo-lossy")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return net, b
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	// Every other datagram is lost; a client with one retry always
	// succeeds.
	net, b := flakyNetwork(t, transport.DropEvery(2))
	c := NewClient(net)
	c.Policy = RetryPolicy{Budget: simtime.RetransmitTimeout}
	defer c.Close()
	for i := 0; i < 8; i++ {
		if _, err := c.Call(context.Background(), b, echoProc,
			marshal.StructV(marshal.Str("x"))); err != nil {
			t.Fatalf("call %d failed despite retries: %v", i, err)
		}
	}
}

func TestNoRetriesSurfacesLoss(t *testing.T) {
	net, b := flakyNetwork(t, transport.DropFirst(1))
	c := NewClient(net)
	defer c.Close()
	_, err := c.Call(context.Background(), b, echoProc, marshal.StructV(marshal.Str("x")))
	if !errors.Is(err, transport.ErrInjectedLoss) {
		t.Fatalf("want injected loss, got %v", err)
	}
	// The next call (network healthy again) succeeds.
	if _, err := c.Call(context.Background(), b, echoProc, marshal.StructV(marshal.Str("x"))); err != nil {
		t.Fatal(err)
	}
}

func TestRetryChargesTimeout(t *testing.T) {
	net, b := flakyNetwork(t, transport.DropFirst(1))
	c := NewClient(net)
	c.Policy = RetryPolicy{Budget: 2 * simtime.RetransmitTimeout}
	defer c.Close()
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := c.Call(ctx, b, echoProc, marshal.StructV(marshal.Str("x")))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// One loss → exactly one retransmission timeout plus one successful
	// round trip; the cost must sit in [timeout+rtt, timeout+rtt+slack).
	min := simtime.RetransmitTimeout + simtime.RTTUDP
	if cost < min || cost > min+20*time.Millisecond {
		t.Fatalf("cost = %v, want ≈ %v", cost, min)
	}
}

func TestRetriesExhausted(t *testing.T) {
	net, b := flakyNetwork(t, func(int) bool { return true }) // total blackout
	c := NewClient(net)
	c.Policy = RetryPolicy{Budget: 3 * simtime.RetransmitTimeout}
	defer c.Close()
	_, err := c.Call(context.Background(), b, echoProc, marshal.StructV(marshal.Str("x")))
	if !errors.Is(err, transport.ErrInjectedLoss) {
		t.Fatalf("want injected loss after exhausting retries, got %v", err)
	}
}

func TestRemoteFaultNotRetried(t *testing.T) {
	// A live server's error must not be retransmitted.
	net := transport.NewNetwork()
	calls := 0
	s := NewServer("faulty", 7101, 1)
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		calls++
		return marshal.Value{}, errors.New("permanent refusal")
	})
	ln, b, err := Serve(net, s, SuiteSunRPC, "h", "h:faulty-retry")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewClient(net)
	c.Policy = RetryPolicy{Budget: 5 * simtime.RetransmitTimeout}
	defer c.Close()
	_, err = c.Call(context.Background(), b, echoProc, marshal.StructV(marshal.Str("x")))
	var rf *RemoteFault
	if !errors.As(err, &rf) {
		t.Fatalf("want RemoteFault, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("server saw %d calls; remote faults must not be retried", calls)
	}
}

func TestRetryRespectsCancelledContext(t *testing.T) {
	net, b := flakyNetwork(t, func(int) bool { return true })
	c := NewClient(net)
	c.Policy = RetryPolicy{Budget: 100 * simtime.RetransmitTimeout}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := c.Call(ctx, b, echoProc, marshal.StructV(marshal.Str("x")))
	if err == nil {
		t.Fatal("call succeeded on dead context")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled call kept retrying")
	}
}
