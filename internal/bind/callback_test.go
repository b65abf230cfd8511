package bind

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/transport"
)

// subscribeRecorded starts a subscription of c to repl.test that records
// each NOTIFY it is handed, and waits for it to stand.
func subscribeRecorded(t *testing.T, c *HRPCClient, callback bool) (*Subscriber, *notifyRecorder) {
	t.Helper()
	rec := &notifyRecorder{}
	sub := c.Subscribe(SubscribeConfig{
		Zone:     "repl.test",
		Callback: callback,
		OnNotify: rec.onNotify,
		OnReset:  rec.onReset,
		Metrics:  metrics.Discard,
	})
	t.Cleanup(func() { sub.Close() })
	waitFor(t, "subscription active", sub, sub.Active)
	return sub, rec
}

// syncOrFail runs sub.Sync under a deadline.
func syncOrFail(t *testing.T, sub *Subscriber) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sub.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// TestCallbackNotifyWireTwin is the tier-1 twin of update_only's frame
// count: 4 contexts are read, then flipped twice each (16 updates). A
// callback subscription is sent the 4 NOTIFYs that invalidate something
// the client read, a plain one all 16. After a re-read of each context
// and one more flip, 4 more and 8 more.
func TestCallbackNotifyWireTwin(t *testing.T) {
	for _, callback := range []bool{true, false} {
		t.Run(fmt.Sprintf("callback=%v", callback), func(t *testing.T) {
			s, c, _ := newPushPrimary(t)
			ctx := context.Background()
			var names []string
			for i := 0; i < 4; i++ {
				names = append(names, fmt.Sprintf("c%d.repl.test", i))
				if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(names[i], "1", 600)}}); err != nil {
					t.Fatal(err)
				}
			}
			sub, rec := subscribeRecorded(t, c, callback)
			read := func() {
				for _, name := range names {
					if _, err := c.Lookup(ctx, name, TypeA); err != nil {
						t.Fatal(err)
					}
				}
			}
			flip := func(times int) {
				for _, name := range names {
					for k := 0; k < times; k++ {
						for _, op := range []uint32{UpdateAdd, UpdateRemove} {
							if _, _, err := s.Apply(ctx, "repl.test", []Op{{op, A(name, "2", 600)}}); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
			want := func(every, cb int) {
				t.Helper()
				syncOrFail(t, sub)
				if callback {
					every = cb
				}
				if got := len(rec.snapshot()); got != every {
					t.Fatalf("%d NOTIFYs, want %d: %v", got, every, rec.snapshot())
				}
				if sub.LastSerial() != s.Zone("repl.test").Serial() {
					t.Fatalf("after Sync LastSerial = %d, zone at %d", sub.LastSerial(), s.Zone("repl.test").Serial())
				}
			}
			read()
			flip(2)
			want(16, 4)
			read()
			flip(1)
			want(24, 8)
		})
	}
}

// TestLiveLoadNotifies: a bulk load into a serving, push-enabled server
// restarts the zone's history, so every subscriber, plain or callback,
// hears one zone-level NOTIFY at the zone's new serial and drops what it
// read.
func TestLiveLoadNotifies(t *testing.T) {
	for _, callback := range []bool{true, false} {
		t.Run(fmt.Sprintf("callback=%v", callback), func(t *testing.T) {
			s, c, _ := newPushPrimary(t)
			sub, rec := subscribeRecorded(t, c, callback)
			if _, err := c.Lookup(context.Background(), "a.repl.test", TypeA); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadRecords([]RR{A("a.repl.test", "3", 600)}); err != nil {
				t.Fatal(err)
			}
			syncOrFail(t, sub)
			if got := rec.snapshot(); len(got) != 1 || got[0] != "" {
				t.Fatalf("NOTIFYs %q, want one zone-level event", got)
			}
			serial := s.Zone("repl.test").Serial()
			if seen := rec.serialsSeen(); seen[0] != serial || sub.LastSerial() != serial {
				t.Fatalf("NOTIFY at %d, LastSerial %d, zone at %d", seen[0], sub.LastSerial(), serial)
			}
		})
	}
}

// TestCallbackRearmsEveryChainStep: each link a BINDQueryChain answers is
// a read of that name, so a NOTIFY naming the tail is owed again after
// every chained re-read.
func TestCallbackRearmsEveryChainStep(t *testing.T) {
	s, c, _ := newPushPrimary(t)
	ctx := context.Background()
	for _, rr := range []RR{HNSMeta("head.repl.test", "k=tail", 600), HNSMeta("tail.repl.test", "v=1", 600)} {
		if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, rr}}); err != nil {
			t.Fatal(err)
		}
	}
	sub, rec := subscribeRecorded(t, c, true)
	follow := []FollowStep{{Key: "k", Suffix: ".repl.test"}}
	for i, op := range []uint32{UpdateAdd, UpdateRemove, UpdateAdd} {
		if _, tails, err := c.LookupChain(ctx, "head.repl.test", TypeHNSMeta, follow); err != nil || len(tails) != 1 {
			t.Fatalf("chain read %d: %d tails, %v", i, len(tails), err)
		}
		if _, _, err := s.Apply(ctx, "repl.test", []Op{{op, HNSMeta("tail.repl.test", "v=2", 600)}}); err != nil {
			t.Fatal(err)
		}
		syncOrFail(t, sub)
		if got := rec.snapshot(); len(got) != i+1 || got[i] != "tail.repl.test" {
			t.Fatalf("after chained read %d and an update of its tail, NOTIFYs %v", i, got)
		}
	}
}

// TestCallbackNotWithReplicas: a client that fails over between replicas
// may read from one while its subscription rides another, so it is not
// given callback delivery; a read that failed back to the primary, with
// the subscription left on the mirror, still hears every update of what
// it read.
func TestCallbackNotWithReplicas(t *testing.T) {
	s, primary, net := newPushPrimary(t)
	ctx := context.Background()
	mirror, err := NewSecondary(primary, "repl.test", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mirror.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	mirror.Server().EnablePush()
	ln, mb, err := mirror.Server().ServeHRPC(net, "mirror:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	c, dials := countDials(t, net, primary.b)
	c.c.SetReplicas(primary.b.Addr, mb.Addr)
	dials.mu.Lock()
	dials.refuse = true // the subscribe fails over to the mirror
	dials.mu.Unlock()
	res := NewResolver(c, ResolverConfig{})
	sub := c.Subscribe(SubscribeConfig{
		Zone:     "repl.test",
		Callback: true,
		OnNotify: func(n push.Notification) {
			for _, name := range n.Names {
				res.Invalidate(name, TypeA)
			}
		},
		OnReset: res.Purge,
		Metrics: metrics.Discard,
	})
	defer sub.Close()
	waitFor(t, "subscription active", sub, sub.Active)
	if n := mirror.Server().pushTab.Load().Len(); n != 1 || dials.dials() != 1 {
		t.Fatalf("the subscription did not fail over to the mirror: %d there, %d dials", n, dials.dials())
	}

	for i, value := range []string{"1", "2", "1"} {
		rrs, err := res.Lookup(ctx, "a.repl.test", TypeA) // the primary answers
		if err != nil {
			t.Fatal(err)
		}
		have := string(rrs[0].Data)
		if have != value {
			t.Fatalf("read %d after the mirror's NOTIFY answers %q, zone has %q", i, have, value)
		}
		ops, _ := flipOps("a.repl.test", have)
		_, serial, err := s.Apply(ctx, "repl.test", ops)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mirror.Refresh(ctx); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprintf("the mirror's NOTIFY for serial %d", serial), sub, func() bool { return sub.LastSerial() >= serial })
	}
	if dials.dials() != 2 {
		t.Fatalf("%d dials, want the mirror's and the primary's: reads fail back to the primary", dials.dials())
	}
}

// TestSubscribeOtherShapeRefused pins the Subscribe call's shape in both
// directions: a call without the mode is refused by a server expecting
// one, and a subscriber asking a server that expects no mode latches
// Degraded and polls.
func TestSubscribeOtherShapeRefused(t *testing.T) {
	s, c, net := newPushPrimary(t)
	noMode := procSubscribe
	noMode.Args = marshal.TStruct(marshal.TString, marshal.TList(marshal.TString), marshal.TUint32)
	if _, reg, err := c.c.Listen(context.Background(), c.b, noMode,
		marshal.StructV(marshal.Str("repl.test"), marshal.ListV(), marshal.U32(0)), func([]byte, error) {}); err == nil {
		reg.Stop()
		t.Fatal("a Subscribe without the mode was accepted")
	} else if transport.CodeOf(err) != transport.CodeRemoteFault {
		t.Fatalf("a Subscribe without the mode failed %v, want a remote fault", err)
	}
	if n := s.pushTab.Load().Len(); n != 0 {
		t.Fatalf("the refused Subscribe left %d subscriptions", n)
	}

	old := hrpc.NewServer("bind-hrpc@old", HRPCProgram, HRPCVersion)
	old.Register(noMode, func(context.Context, marshal.Value) (marshal.Value, error) {
		return marshal.StructV(marshal.U32(uint32(RCodeOK)), marshal.U32(1)), nil
	})
	ln, b, err := hrpc.Serve(net, old, hrpc.SuiteRaw, "old", "old:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hc := hrpc.NewClient(net)
	defer hc.Close()
	for _, callback := range []bool{false, true} {
		sub := NewHRPCClient(hc, b).Subscribe(SubscribeConfig{Zone: "repl.test", Callback: callback, Metrics: metrics.Discard})
		waitFor(t, "degraded against a server without the mode", sub, sub.Degraded)
		sub.Close()
	}
}

// TestSubscribeResetAdoptsServerSerial: a reconnect that finds the
// server's serial behind the subscriber's (a primary restarted without its
// journal, a failover to a lagging mirror) resets once and adopts the
// server's serial, so the next reconnect with no update catches up from
// there instead of resetting again.
func TestSubscribeResetAdoptsServerSerial(t *testing.T) {
	s, client, net := newPushPrimary(t)
	client, dials := countDials(t, net, client.b)
	reg := metrics.NewRegistry()
	rec := &notifyRecorder{}
	sub := NewSubscriber(client, SubscribeConfig{Zone: "repl.test", OnNotify: rec.onNotify, OnReset: rec.onReset, Metrics: reg})
	sub.Start()
	defer sub.Close()
	waitFor(t, "subscription active", sub, sub.Active)
	z := s.Zone("repl.test")
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(fmt.Sprintf("u%d.repl.test", i), "1", 60)}}); err != nil {
			t.Fatal(err)
		}
	}
	high := z.Serial()
	waitFor(t, "the updates' NOTIFYs", sub, func() bool { return sub.LastSerial() == high })

	resubs := reg.Counter("push_client_resubscribe_total")
	for kill := 1; kill <= 2; kill++ {
		if kill == 1 {
			dials.kill(t)
			z.ForceSerial(high - 3) // the server comes back behind
		} else {
			dials.kill(t)
		}
		waitFor(t, fmt.Sprintf("resubscribe %d", kill), sub, func() bool { return resubs.Value() == int64(1+kill) && sub.Active() })
		if sub.LastSerial() != z.Serial() {
			t.Fatalf("after reconnect %d LastSerial = %d, the server's serial is %d", kill, sub.LastSerial(), z.Serial())
		}
		if rec.resetCount() != 1 {
			t.Fatalf("after reconnect %d, %d resets; want the one the serial moving back caused", kill, rec.resetCount())
		}
	}
}

// callbackPrimary serves repl.test, holding names n0…n{names-1} each
// at "1", over loopback sockets, and returns a maker of clients of it.
func callbackPrimary(t *testing.T, names int) func() *HRPCClient {
	t.Helper()
	s := NewServer("primary")
	z, err := NewZone("repl.test", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	s.EnablePush()
	for i := 0; i < names; i++ {
		if _, _, err := s.Apply(context.Background(), "repl.test", []Op{{UpdateAdd, A(fmt.Sprintf("n%d.repl.test", i), "1", 600)}}); err != nil {
			t.Fatal(err)
		}
	}
	net := transport.NewNetwork()
	ln, b, err := hrpc.Serve(net, s.HRPCServer(), hrpc.SuiteRawNet, "primary", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return func() *HRPCClient {
		hc := hrpc.NewClient(net)
		t.Cleanup(func() { hc.Close() })
		return NewHRPCClient(hc, b)
	}
}

// flipOps rewrites name's one A record from old to its other value.
func flipOps(name, old string) ([]Op, string) {
	next := map[string]string{"1": "2", "2": "1"}[old]
	return []Op{{UpdateAdd, A(name, next, 600)}, {UpdateRemove, A(name, old, 600)}}, next
}

// TestCallbackConcurrentFlipsNeverLeaveStale is the soundness proof of
// callback delivery under concurrency, over loopback sockets: readers
// sharing one callback-subscribed cache read names while a second client
// flips them between two values, seeded. After every few flips the
// readers pause, the subscriber Syncs, and every cached answer must equal
// the zone's: a NOTIFY wrongly skipped leaves a flip's old value cached.
func TestCallbackConcurrentFlipsNeverLeaveStale(t *testing.T) {
	const (
		names   = 3
		readers = 4
		rounds  = 150
		flips   = 3 // per round
		seed    = 1
	)
	rng := rand.New(rand.NewSource(seed))
	client := callbackPrimary(t, names)
	c, writer := client(), client()
	res := NewResolver(c, ResolverConfig{})
	sub := c.Subscribe(SubscribeConfig{
		Zone:     "repl.test",
		Callback: true,
		OnNotify: func(n push.Notification) {
			for _, name := range n.Names {
				res.Invalidate(name, TypeA)
			}
		},
		OnReset: res.Purge,
		Metrics: metrics.Discard,
	})
	defer sub.Close()
	waitFor(t, "subscription active", sub, sub.Active)

	ctx := context.Background()
	name := func(i int) string { return fmt.Sprintf("n%d.repl.test", i) }
	value := []string{"1", "1", "1"}
	var (
		pause sync.RWMutex // readers read under RLock; a check takes Lock
		wg    sync.WaitGroup
		stop  = make(chan struct{})
		errs  = make(chan error, readers)
	)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				pause.RLock()
				_, err := res.Lookup(ctx, name(k%names), TypeA)
				pause.RUnlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	defer wg.Wait()
	defer close(stop)

	// check reports the first cached answer that differs from the zone.
	check := func() error {
		pause.Lock()
		defer pause.Unlock()
		ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if err := sub.Sync(ctx); err != nil {
			return err
		}
		for i := 0; i < names; i++ {
			rrs, err := res.Lookup(ctx, name(i), TypeA)
			if err != nil {
				return err
			}
			if len(rrs) != 1 || string(rrs[0].Data) != value[i] {
				return fmt.Errorf("the cache answers %s with %v, the zone holds %q", name(i), rrs, value[i])
			}
		}
		return nil
	}
	for r := 0; r < rounds; r++ {
		for f := 0; f < flips; f++ {
			i := rng.Intn(names)
			var ops []Op
			ops, value[i] = flipOps(name(i), value[i])
			if _, err := writer.Apply(ctx, "repl.test", ops); err != nil {
				t.Fatal(err)
			}
		}
		if err := check(); err != nil {
			t.Fatalf("seed %d, round %d: %v", seed, r, err)
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
}

// TestCallbackRearmsBeforeRead holds the zone's lock so a read of a told
// name stops at the zone, then publishes probe NOTIFYs naming it until one
// is sent: only a read that re-armed the name before it looked lets one
// through while it waits, and a read that re-arms after would let none.
func TestCallbackRearmsBeforeRead(t *testing.T) {
	s, c, _ := newPushPrimary(t)
	ctx := context.Background()
	const name = "a.repl.test"
	sub, rec := subscribeRecorded(t, c, true)
	if _, err := c.Lookup(ctx, name, TypeA); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(name, "2", 600)}}); err != nil {
		t.Fatal(err)
	}
	syncOrFail(t, sub) // the name is told
	z := s.Zone("repl.test")
	serial := z.Serial()
	z.mu.Lock()
	read := make(chan error, 1)
	go func() {
		_, err := c.Lookup(ctx, name, TypeA)
		read <- err
	}()
	deadline := time.After(5 * time.Second)
	for sent := len(rec.snapshot()); len(rec.snapshot()) == sent; {
		changed := rec.Changed()
		s.publish("repl.test", []Op{{UpdateAdd, A(name, "2", 600)}}, serial)
		select {
		case <-changed:
		case <-time.After(time.Millisecond):
		case <-deadline:
			z.mu.Unlock()
			t.Fatal("a read waiting at the zone had not re-armed the name it reads")
		}
	}
	z.mu.Unlock()
	if err := <-read; err != nil {
		t.Fatal(err)
	}
}
