package bind

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/transport"
)

// dialCounter is a Transport that counts the dials its inner transport
// completes and keeps each connection, so a test can kill one. It hands
// back the inner Conn unwrapped, so transport.PushReceiver still holds.
// While gate is set, dials wait for it to close.
type dialCounter struct {
	transport.Transport
	name string

	mu     sync.Mutex
	conns  []transport.Conn
	gate   chan struct{}
	refuse bool // refuse the next dial
}

func (d *dialCounter) Name() string { return d.name }

func (d *dialCounter) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	d.mu.Lock()
	gate := d.gate
	d.mu.Unlock()
	if gate != nil {
		<-gate
	}
	d.mu.Lock()
	refuse := d.refuse
	d.refuse = false
	d.mu.Unlock()
	if refuse {
		return nil, transport.ErrRefused
	}
	conn, err := d.Transport.Dial(ctx, addr)
	if err == nil {
		d.mu.Lock()
		d.conns = append(d.conns, conn)
		d.mu.Unlock()
	}
	return conn, err
}

func (d *dialCounter) dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.conns)
}

// kill closes the newest connection and, unless dials are held at the
// gate, refuses the next dial, as a peer that resets and is briefly
// unreachable would: a subscriber's first resubscribe fails, and it stays
// dark for one retry wait.
func (d *dialCounter) kill(t *testing.T) {
	t.Helper()
	d.mu.Lock()
	if len(d.conns) == 0 {
		t.Fatal("no connection to kill")
	}
	conn := d.conns[len(d.conns)-1]
	d.refuse = d.gate == nil
	d.mu.Unlock()
	conn.Close()
}

// countDials binds b through a dialCounter registered on net, on an hrpc
// client of its own.
// dialCounters names each dialCounter apart.
var dialCounters atomic.Int64

func countDials(t *testing.T, net *transport.Network, b hrpc.Binding) (*HRPCClient, *dialCounter) {
	t.Helper()
	inner, err := net.Transport(b.Transport)
	if err != nil {
		t.Fatal(err)
	}
	d := &dialCounter{Transport: inner, name: fmt.Sprintf("%s-counted-%d", inner.Name(), dialCounters.Add(1))}
	net.Register(d)
	b.Transport = d.Name()
	hc := hrpc.NewClient(net)
	t.Cleanup(func() { hc.Close() })
	return NewHRPCClient(hc, b), d
}

// TestSubscriptionsShareTheConnection: lookups and two subscriptions on
// one pooled client ride one connection; each subscription hears each
// transaction it matches exactly once; a connection death costs one
// redial and one resubscribe per subscription, with the transactions of
// the gap caught up; and a FreshConn client's subscription holds the one
// cached connection while its calls still dial one apiece, and stops when
// the client closes.
func TestSubscriptionsShareTheConnection(t *testing.T) {
	s, c, net := newPushPrimary(t)
	client, dials := countDials(t, net, c.b)
	reg := metrics.NewRegistry()
	client.c.Metrics = reg
	ctx := context.Background()
	const hot = "a.repl.test"

	// Armed, the first notification a subscription is handed lands one
	// more transaction on the zone, and says its serial on midCatchUp.
	var armed, fired atomic.Bool
	midCatchUp := make(chan uint32, 1)
	onNotify := func(rec *notifyRecorder) func(push.Notification) {
		return func(n push.Notification) {
			rec.onNotify(n)
			if armed.Load() && fired.CompareAndSwap(false, true) {
				_, serial, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(hot, "mid", 60)}})
				if err != nil {
					t.Error(err)
				}
				midCatchUp <- serial
			}
		}
	}
	type sub struct {
		*Subscriber
		rec *notifyRecorder
		reg *metrics.Registry
	}
	subscribe := func(names ...string) sub {
		rec, r := &notifyRecorder{}, metrics.NewRegistry()
		sb := NewSubscriber(client, SubscribeConfig{Zone: "repl.test", Names: names, OnNotify: onNotify(rec), OnReset: rec.onReset, Metrics: r})
		sb.Start()
		t.Cleanup(func() { sb.Close() })
		return sub{sb, rec, r}
	}
	if _, err := client.Lookup(ctx, hot, TypeA); err != nil {
		t.Fatal(err)
	}
	zone, narrow := subscribe(), subscribe(hot)
	for _, sb := range []sub{zone, narrow} {
		waitFor(t, "subscription active", sb, sb.Active)
	}
	if _, err := client.Lookup(ctx, "b.repl.test", TypeA); err != nil {
		t.Fatal(err)
	}
	pool := reg.Gauge(metrics.Labels("conn_pool_size", "addr", client.b.Addr))
	if dials.dials() != 1 || pool.Value() != 1 {
		t.Fatalf("lookups and two subscriptions made %d dials (conn_pool_size %d), want one connection", dials.dials(), pool.Value())
	}

	// Transactions alternate between the narrowed name and another one.
	var all, mine []uint32
	update := func(i int) {
		t.Helper()
		name := fmt.Sprintf("x%d.repl.test", i)
		if i%2 == 0 {
			name = hot
		}
		_, serial, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(name, fmt.Sprint(i), 60)}})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, serial)
		if name == hot {
			mine = append(mine, serial)
		}
	}
	heard := func(what string) {
		t.Helper()
		last := all[len(all)-1]
		waitFor(t, what, zone, func() bool { return zone.LastSerial() >= last })
		waitFor(t, what, narrow, func() bool { return narrow.LastSerial() >= mine[len(mine)-1] })
		if got := zone.rec.serialsSeen(); fmt.Sprint(got) != fmt.Sprint(all) {
			t.Fatalf("%s: whole-zone subscription heard serials %v, want each of %v once", what, got, all)
		}
		if got := narrow.rec.serialsSeen(); fmt.Sprint(got) != fmt.Sprint(mine) {
			t.Fatalf("%s: narrowed subscription heard serials %v, want each of %v once", what, got, mine)
		}
	}
	for i := 0; i < 4; i++ {
		update(i)
	}
	heard("live pushes")

	// Kill the connection with the redial held back: the transactions of
	// the gap come back by catch-up, and the two resubscribes share one
	// redial. One more transaction lands while the subscriptions catch
	// up; whichever has not replayed it yet hears it once, after the
	// replay.
	dials.mu.Lock()
	gate := make(chan struct{})
	dials.gate = gate
	dials.mu.Unlock()
	dials.kill(t)
	for _, sb := range []sub{zone, narrow} {
		waitFor(t, "subscription down", sb, func() bool { return !sb.Active() })
	}
	for i := 4; i < 8; i++ {
		update(i)
	}
	armed.Store(true)
	close(gate)
	for _, sb := range []sub{zone, narrow} {
		waitFor(t, "subscription back", sb, sb.Active)
	}
	serial := <-midCatchUp
	all, mine = append(all, serial), append(mine, serial)
	heard("catch-up")
	if dials.dials() != 2 || pool.Value() != 1 {
		t.Fatalf("after one connection death: %d dials (conn_pool_size %d), want 2 and one connection", dials.dials(), pool.Value())
	}
	for _, sb := range []sub{zone, narrow} {
		if got := sb.reg.Counter("push_client_resubscribe_total").Value(); got != 2 {
			t.Fatalf("subscription made %d subscribes, want 2", got)
		}
		if sb.reg.Counter("push_client_catchup_records_total").Value() == 0 || sb.rec.resetCount() != 0 {
			t.Fatal("the gap was not caught up by delta")
		}
	}

	// A FreshConn client: its subscription holds the cached connection,
	// and every call still dials its own.
	fresh, freshDials := countDials(t, net, c.b)
	freshReg := metrics.NewRegistry()
	fresh.c.Metrics, fresh.c.FreshConn = freshReg, true
	rec := &notifyRecorder{}
	fs := fresh.Subscribe(SubscribeConfig{Zone: "repl.test", OnNotify: rec.onNotify, Metrics: metrics.Discard})
	defer fs.Close()
	waitFor(t, "FreshConn subscription active", fs, fs.Active)
	const calls = 3
	for i := 0; i < calls; i++ {
		if _, err := fresh.Lookup(ctx, hot, TypeA); err != nil {
			t.Fatal(err)
		}
	}
	freshPool := freshReg.Gauge(metrics.Labels("conn_pool_size", "addr", fresh.b.Addr))
	if freshDials.dials() != 1+calls || freshPool.Value() != 1 {
		t.Fatalf("FreshConn client: %d dials (conn_pool_size %d) for a subscription and %d calls, want %d and one cached connection",
			freshDials.dials(), freshPool.Value(), calls, 1+calls)
	}
	update(8)
	waitFor(t, "FreshConn subscription notify", fs, func() bool { return fs.LastSerial() >= all[len(all)-1] })
	if got := rec.serialsSeen(); len(got) != 1 || got[0] != all[len(all)-1] {
		t.Fatalf("FreshConn subscription heard %v, want [%d]", got, all[len(all)-1])
	}

	// Closing the client kills its connection, and that death notice
	// redials nothing.
	fresh.c.Close()
	waitFor(t, "subscription down with its client", fs, func() bool { return !fs.Active() })
	fs.Close()
	if got := freshDials.dials(); got != 1+calls {
		t.Fatalf("a closed client's subscription dialed again: %d dials, want %d", got, 1+calls)
	}
}
