package core_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/push"
	"hns/internal/qclass"
	"hns/internal/world"
)

// flipNSM is an NSM of its own system type, for tests that register and
// unregister it while the world's NSMs stay put.
var flipNSM = core.NSMInfo{
	Name: "binding-flip-1", NameService: "flip-ns", QueryClass: qclass.HRPCBinding,
	Host: world.HostNSM, HostContext: world.CtxHostB, Port: world.PortBindingBind,
	Suite: hrpc.SuiteSunRPC,
}

// TestRegisterNSMIsAtomic: a reader resolving through an NSM that a writer
// keeps registering and unregistering finds the whole NSM or none of it —
// never the query-class mapping leading to a half-written NSM record.
func TestRegisterNSMIsAtomic(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	if err := w.HNS.RegisterContext(ctx, "hrpcbinding-flip", flipNSM.NameService); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for i := 0; i < 200 && !stop.Load(); i++ {
			if err := w.HNS.RegisterNSM(ctx, flipNSM); err != nil {
				t.Error(err)
				return
			}
			if err := w.HNS.UnregisterNSM(ctx, flipNSM.Name, flipNSM.NameService, flipNSM.QueryClass); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reader := w.NewHNS(core.Config{})
	name := names.Must("hrpcbinding-flip", "x")
	var whole, none int
	var bad error
	for !stop.Load() {
		reader.FlushCache()
		_, err := reader.FindNSM(ctx, name, qclass.HRPCBinding)
		switch {
		case err == nil:
			whole++
		case errors.Is(err, core.ErrNoSuchNSM):
			none++
		default:
			bad = err
			stop.Store(true)
		}
	}
	wg.Wait()
	if bad != nil {
		t.Fatalf("after %d whole and %d absent NSMs the reader saw %v; want the whole NSM or %v", whole, none, bad, core.ErrNoSuchNSM)
	}
	t.Logf("reader saw the NSM whole %d times and absent %d times", whole, none)
}

// TestUnregisterNSMAllOrNothing: unregistering with a valid name service
// and query class but the wrong NSM name fails, and changes no record, no
// serial and no history — the mapping stays, and so does FindNSM.
func TestUnregisterNSMAllOrNothing(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	z := w.MetaServer.Zone(world.MetaZone)
	_, serial, before := w.MetaServer.Transfer(ctx, world.MetaZone)
	if err := w.HNS.UnregisterNSM(ctx, "no-such-nsm", world.NSBind, qclass.HRPCBinding); err == nil {
		t.Fatal("unregistering an NSM that is not there succeeded")
	}
	if _, after, sets := w.MetaServer.Transfer(ctx, world.MetaZone); !bytes.Equal(sets, before) || after != serial {
		t.Fatalf("the failed unregister moved the meta zone from serial %d to %d", serial, after)
	}
	if h, ok := z.DiffSince(serial - 1); !ok || len(h) != 1 || h[0].Serial != serial {
		t.Fatalf("the failed unregister moved the history: %+v, ok=%v", h, ok)
	}
	if _, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatalf("FindNSM after the failed unregister: %v", err)
	}
}

// TestRegisterNSMIsOneExchange pins registration in wire frames and
// NOTIFYs: registering an NSM is one exchange with the meta-BIND (2
// frames), unregistering it one more, and a subscriber hears one NOTIFY
// for each, naming the query-class mapping and the NSM record.
func TestRegisterNSMIsOneExchange(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	register := func() error { return w.HNS.RegisterNSM(ctx, flipNSM) }
	unregister := func() error {
		return w.HNS.UnregisterNSM(ctx, flipNSM.Name, flipNSM.NameService, flipNSM.QueryClass)
	}
	for _, step := range []struct {
		name string
		call func() error
	}{{"RegisterNSM", register}, {"UnregisterNSM", unregister}} {
		before := metaFrames()
		if err := step.call(); err != nil {
			t.Fatal(err)
		}
		if got := metaFrames() - before; got != 2 {
			t.Errorf("%s moved %d frames to the meta-BIND, want 2 (one exchange)", step.name, got)
		}
	}

	w.MetaServer.EnablePush()
	var mu sync.Mutex
	var seen [][]string
	sub := w.MetaHRPCClient().Subscribe(bind.SubscribeConfig{
		Zone: world.MetaZone,
		OnNotify: func(n push.Notification) {
			mu.Lock()
			seen = append(seen, n.Names)
			mu.Unlock()
		},
		Metrics: metrics.Discard,
	})
	defer sub.Close()
	waitSub(t, "subscription active", sub, sub.Active)
	z := w.MetaServer.Zone(world.MetaZone)
	want := []string{"hrpcbinding.flip-ns.qc." + world.MetaZone, flipNSM.Name + ".nsm." + world.MetaZone}
	for i, call := range []func() error{register, unregister} {
		if err := call(); err != nil {
			t.Fatal(err)
		}
		serial := z.Serial()
		waitSub(t, "the NOTIFY", sub, func() bool { return sub.LastSerial() >= serial })
		mu.Lock()
		got := seen
		mu.Unlock()
		if len(got) != i+1 || len(got[i]) != 2 || got[i][0] != want[0] || got[i][1] != want[1] {
			t.Fatalf("after %d calls the subscriber heard %q; want one NOTIFY per call naming %q", i+1, got, want)
		}
	}
}

// waitSub blocks until cond holds, checking it at each change sub signals.
func waitSub(t *testing.T, what string, sub *bind.Subscriber, cond func() bool) {
	t.Helper()
	for {
		changed := sub.Changed()
		if cond() {
			return
		}
		select {
		case <-changed:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
