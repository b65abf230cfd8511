package bind

import (
	"context"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// newPrimary stands up a primary with an updatable zone and returns an
// HRPC client to it.
func newPrimary(t *testing.T) (*Server, *HRPCClient, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork()
	s := NewServer("primary")
	z, err := NewZone("repl.test", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRecords([]RR{
		A("a.repl.test", "1", 600),
		A("b.repl.test", "2", 600),
	}); err != nil {
		t.Fatal(err)
	}
	ln, b, err := s.ServeHRPC(net, "primary:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hc := hrpc.NewClient(net)
	t.Cleanup(func() { hc.Close() })
	return s, NewHRPCClient(hc, b), net
}

func TestSecondaryMirrorsZone(t *testing.T) {
	_, client, _ := newPrimary(t)
	sec, err := NewSecondary(client, "repl.test", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Before the first refresh: empty.
	if rcode, _ := sec.Server().Query(ctx, "a.repl.test", TypeA); rcode != RCodeNXDomain {
		t.Fatalf("pre-refresh rcode = %v", rcode)
	}

	changed, err := sec.Refresh(ctx)
	if err != nil || !changed {
		t.Fatalf("Refresh = %v, %v", changed, err)
	}
	rcode, rrs := sec.Server().Query(ctx, "a.repl.test", TypeA)
	if rcode != RCodeOK || len(rrs) != 1 || string(rrs[0].Data) != "1" {
		t.Fatalf("post-refresh query = %v %v", rcode, rrs)
	}
	if sec.Serial() == 0 || sec.Refreshes() != 1 {
		t.Fatalf("serial/refreshes = %d/%d", sec.Serial(), sec.Refreshes())
	}
}

func TestSecondaryRefreshIsSerialGated(t *testing.T) {
	primary, client, _ := newPrimary(t)
	sec, err := NewSecondary(client, "repl.test", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sec.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	// Unchanged primary: refresh is a cheap probe, no transfer.
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		changed, err := sec.Refresh(ctx)
		if changed {
			t.Error("refresh transferred an unchanged zone")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost > 100*simtime.ZoneXferPerRR {
		t.Fatalf("no-op refresh cost %v — looks like a transfer", cost)
	}

	// Primary changes: the next refresh picks it up.
	if err := primary.Zone("repl.test").Add(A("c.repl.test", "3", 600)); err != nil {
		t.Fatal(err)
	}
	changed, err := sec.Refresh(ctx)
	if err != nil || !changed {
		t.Fatalf("Refresh after update = %v, %v", changed, err)
	}
	rcode, rrs := sec.Server().Query(ctx, "c.repl.test", TypeA)
	if rcode != RCodeOK || len(rrs) != 1 {
		t.Fatalf("new record not mirrored: %v %v", rcode, rrs)
	}
	// Removals propagate too.
	if err := primary.Zone("repl.test").Remove(RR{Name: "a.repl.test", Type: TypeA}); err != nil {
		t.Fatal(err)
	}
	if _, err := sec.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if rcode, _ := sec.Server().Query(ctx, "a.repl.test", TypeA); rcode != RCodeNXDomain {
		t.Fatalf("removed record survives on mirror: %v", rcode)
	}
}

func TestSecondaryRejectsUpdates(t *testing.T) {
	_, client, _ := newPrimary(t)
	sec, err := NewSecondary(client, "repl.test", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sec.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	rcode, _, err := sec.Server().Update(ctx, "repl.test", UpdateAdd, A("x.repl.test", "9", 60))
	if rcode != RCodeRefused || err == nil {
		t.Fatalf("mirror accepted an update: %v %v", rcode, err)
	}
}

// TestSecondaryFollowTakesNotify: a following mirror pulls a primary's
// transaction the moment its NOTIFY lands, not at its hour-long poll,
// takes it as a delta and republishes it to its own subscribers.
func TestSecondaryFollowTakesNotify(t *testing.T) {
	primary, client, net := newPushPrimary(t)
	ctx := context.Background()
	sec, err := NewSecondary(client, "repl.test", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sec.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	sec.Server().EnablePush(0)
	ln, binding, err := sec.Server().ServeHRPC(net, "mirror:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hc := hrpc.NewClient(net)
	defer hc.Close()
	notified := make(chan push.Notification, 1)
	sub := NewSubscriber(NewHRPCClient(hc, binding), SubscribeConfig{
		Zone: "repl.test",
		OnNotify: func(n push.Notification) {
			select {
			case notified <- n:
			default:
			}
		},
		Metrics: metrics.Discard,
	})
	sub.Start()
	defer sub.Close()
	waitFor(t, "subscription to the mirror active", sub, sub.Active)

	refreshed := make(chan error, 1)
	stop := sec.Follow(time.Hour, func(moved bool, err error) {
		if moved || err != nil {
			select {
			case refreshed <- err:
			default:
			}
		}
	})
	defer stop()

	_, serial, err := primary.Apply(ctx, "repl.test", Adds(A("c.repl.test", "3", 60)))
	if err != nil {
		t.Fatal(err)
	}
	timeout := time.After(5 * time.Second)
	select {
	case n := <-notified:
		if n.Serial != serial {
			t.Fatalf("mirror's NOTIFY at serial %d, want the primary's %d", n.Serial, serial)
		}
	case <-timeout:
		t.Fatal("no NOTIFY from the mirror: it did not follow the primary's push")
	}
	select {
	case err := <-refreshed:
		if err != nil {
			t.Fatal(err)
		}
	case <-timeout:
		t.Fatal("the mirror's refresh never finished")
	}
	if sec.Serial() != serial || sec.DeltaRefreshes() < 1 {
		t.Fatalf("mirror at serial %d after %d delta refreshes; want the primary's %d by delta",
			sec.Serial(), sec.DeltaRefreshes(), serial)
	}
}

func TestZoneReplace(t *testing.T) {
	z, _ := NewZone("r.test", false)
	if err := z.Replace([]RR{A("a.r.test", "1", 60)}, 42); err != nil {
		t.Fatal(err)
	}
	if z.Serial() != 42 || z.Count() != 1 {
		t.Fatalf("serial/count = %d/%d", z.Serial(), z.Count())
	}
	// Replace rejects foreign names wholesale.
	if err := z.Replace([]RR{A("a.other.test", "1", 60)}, 43); err == nil {
		t.Fatal("foreign record accepted")
	}
	// Failed replace must not have clobbered contents.
	if z.Count() != 1 || z.Serial() != 42 {
		t.Fatal("failed Replace mutated the zone")
	}
}
