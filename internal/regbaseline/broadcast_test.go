package regbaseline

import (
	"context"
	"strings"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// newSubsystem stands up one BIND subsystem holding the given records and
// returns a standard-interface client to it.
func newSubsystem(t *testing.T, net *transport.Network, idx int, rrs ...bind.RR) *bind.StdClient {
	t.Helper()
	srv := bind.NewServer("sub")
	z, err := bind.NewZone("sub.test", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddZone(z); err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadRecords(rrs); err != nil {
		t.Fatal(err)
	}
	addr := "sub" + string(rune('a'+idx)) + ":53"
	ln, err := srv.ServeStd(net, "udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	c := bind.NewStdClient(net, "udp", addr)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestBroadcastResolve(t *testing.T) {
	net := transport.NewNetwork()
	loc := NewBroadcastLocator(
		newSubsystem(t, net, 0, bind.A("a.sub.test", "addr-a", 60)),
		newSubsystem(t, net, 1, bind.A("b.sub.test", "addr-b", 60)),
	)
	loc.AddServer(newSubsystem(t, net, 2, bind.A("c.sub.test", "addr-c", 60)))
	if loc.Servers() != 3 {
		t.Fatalf("Servers = %d", loc.Servers())
	}
	ctx := context.Background()

	// First subsystem answers after one query.
	addr, queried, err := loc.Resolve(ctx, "a.sub.test")
	if err != nil || addr != "addr-a" || queried != 1 {
		t.Fatalf("Resolve(a) = %q, %d, %v", addr, queried, err)
	}
	// Last subsystem answers after three.
	addr, queried, err = loc.Resolve(ctx, "c.sub.test")
	if err != nil || addr != "addr-c" || queried != 3 {
		t.Fatalf("Resolve(c) = %q, %d, %v", addr, queried, err)
	}
	// Worst-case cost is ~3 lookups.
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		_, _, err := loc.Resolve(ctx, "c.sub.test")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost < 70*time.Millisecond {
		t.Fatalf("worst-case broadcast cost %v suspiciously cheap", cost)
	}
}

func TestBroadcastNotFoundAnywhere(t *testing.T) {
	net := transport.NewNetwork()
	loc := NewBroadcastLocator(
		newSubsystem(t, net, 0, bind.A("a.sub.test", "x", 60)),
		newSubsystem(t, net, 1))
	_, queried, err := loc.Resolve(context.Background(), "ghost.sub.test")
	if err == nil || !strings.Contains(err.Error(), "not found in any of 2") {
		t.Fatalf("err = %v", err)
	}
	if queried != 2 {
		t.Fatalf("queried = %d; must have paid for every subsystem", queried)
	}
}

func TestBroadcastTransportFailureSurfaces(t *testing.T) {
	// A dead subsystem is a hard error, not a silent skip — broadcast
	// cannot distinguish "down" from "doesn't have it", which is part of
	// why the paper rejects it.
	net := transport.NewNetwork()
	dead := bind.NewStdClient(net, "udp", "nowhere:53")
	t.Cleanup(func() { dead.Close() })
	loc := NewBroadcastLocator(dead,
		newSubsystem(t, net, 0, bind.A("a.sub.test", "x", 60)))
	if _, _, err := loc.Resolve(context.Background(), "a.sub.test"); err == nil {
		t.Fatal("dead subsystem ignored")
	}
}
