package core_test

import (
	"context"
	"testing"

	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/qclass"
	"hns/internal/world"
)

// serveSubscribedHNS serves, at addr, an HNS of w subscribed to the meta
// BIND's push plane, once its subscription stands: a server that grants
// Watch and lets answers be kept.
func serveSubscribedHNS(tb testing.TB, w *world.World, addr string) hrpc.Binding {
	tb.Helper()
	w.MetaServer.EnablePush()
	h := w.NewHNS(core.Config{Metrics: metrics.Discard})
	if !h.SubscribeMeta() {
		tb.Fatal("SubscribeMeta refused with push enabled")
	}
	tb.Cleanup(h.UnsubscribeMeta)
	if err := h.MetaSubscription().Sync(context.Background()); err != nil {
		tb.Fatal(err)
	}
	srv := core.NewHNSServer(h, "hns@june")
	srv.Metrics = metrics.Discard
	ln, hb, err := hrpc.Serve(w.Net, srv, hrpc.SuiteRaw, "june", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	return hb
}

// TestCallersThatCannotWatchKeepNothing: a caller that dials per call, one
// with failover replicas, and one of an HNS without a meta subscription
// keep nothing — past the first FindNSM each moves one exchange per call,
// as before callers could keep answers — while a caller on one connection
// to a subscribed HNS answers from its memo and moves no frame.
func TestCallersThatCannotWatchKeepNothing(t *testing.T) {
	w := newWorld(t, world.Config{})
	subscribed := serveSubscribedHNS(t, w, "june:hns-subscribed")
	ln, plain, err := core.ServeHNS(w.Net, w.HNS, "june", "june:hns-plain")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client := func(setup func(*hrpc.Client)) *hrpc.Client {
		c := hrpc.NewClient(w.Net)
		c.Metrics = metrics.Discard
		setup(c)
		t.Cleanup(func() { c.Close() })
		return c
	}
	for _, tc := range []struct {
		name    string
		remote  *core.RemoteHNS
		perCall int64
	}{
		{"FreshConn", core.NewRemoteHNS(client(func(c *hrpc.Client) { c.FreshConn = true }), subscribed), 2},
		{"SetReplicas", core.NewRemoteHNS(client(func(c *hrpc.Client) { c.SetReplicas(subscribed.Addr, plain.Addr) }), subscribed), 2},
		{"no meta subscription", core.NewRemoteHNS(client(func(*hrpc.Client) {}), plain), 2},
		{"one connection, subscribed", core.NewRemoteHNS(client(func(*hrpc.Client) {}), subscribed), 0},
	} {
		ctx := context.Background()
		find := func() {
			t.Helper()
			if _, err := tc.remote.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		find() // dials, then asks for the watch where the client may
		find() // kept, where it watches
		before := framesTotal()
		for range 3 {
			find()
		}
		if got := framesTotal() - before; got != 3*tc.perCall {
			t.Errorf("%s: 3 warm FindNSMs moved %d frames, want %d", tc.name, got, 3*tc.perCall)
		}
	}
}
