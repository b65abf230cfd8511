package push

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"hns/internal/metrics"
)

// fakeSink is an in-memory Pusher.
type fakeSink struct {
	mu     sync.Mutex
	got    [][]byte
	fail   bool
	done   chan struct{}
	closed bool
}

func newFakeSink() *fakeSink { return &fakeSink{done: make(chan struct{})} }

func (s *fakeSink) Push(body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail {
		return errors.New("conn gone")
	}
	s.got = append(s.got, append([]byte(nil), body...))
	return nil
}
func (s *fakeSink) Peer() string          { return "test!1" }
func (s *fakeSink) Done() <-chan struct{} { return s.done }
func (s *fakeSink) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
}
func (s *fakeSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func TestNotificationRoundTrip(t *testing.T) {
	for _, n := range []Notification{
		{Zone: "hns", Names: []string{"ctx-a.ctx.hns"}, Serial: 7},
		{Zone: "hns", Names: []string{"q.ns.qc.hns", "n.nsm.hns"}, Serial: 8},
		{Zone: "hns", Serial: 0},
		{Zone: "", Serial: 4294967295},
	} {
		got, err := DecodeNotification(EncodeNotification(n))
		if err != nil {
			t.Fatalf("decode(%+v): %v", n, err)
		}
		if !reflect.DeepEqual(got, n) {
			t.Fatalf("round trip = %+v, want %+v", got, n)
		}
	}
}

// The one-name and zone-level frames, every integer a uvarint.
func TestNotificationGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		n    Notification
		want string
	}{
		{Notification{Zone: "hns", Names: []string{"h0.ctx.hns"}, Serial: 42}, "4e2a03686e730a68302e6374782e686e73"},
		{Notification{Zone: "hns", Serial: 42}, "4e2a03686e7300"},
	} {
		if got := hex.EncodeToString(EncodeNotification(tc.n)); got != tc.want {
			t.Errorf("%+v encodes as %s, want %s", tc.n, got, tc.want)
		}
	}
}

func TestNotificationDecodeRejectsGarbage(t *testing.T) {
	good := EncodeNotification(Notification{Zone: "hns", Names: []string{"a.ctx.hns"}, Serial: 3})
	two := EncodeNotification(Notification{Zone: "hns", Names: []string{"a.ctx.hns", "b.ctx.hns"}, Serial: 3})
	cases := map[string][]byte{
		"empty":                    {},
		"wrong mark":               append([]byte{'X'}, good[1:]...),
		"no serial":                good[:1],
		"short zone len":           good[:2],
		"short zone":               good[:4],
		"no name":                  good[:6],
		"trailing":                 append(bytes.Clone(good), 0xFF),
		"empty name after a name":  append(bytes.Clone(good), 0),
		"empty name before a name": append(append(bytes.Clone(good[:6]), 0), good[6:]...),
		"name cut short":           two[:len(two)-1],
		"serial overlong":          append([]byte{'N', 0x83, 0x00}, good[2:]...),
		"serial past 2³²−1":        append([]byte{'N', 0x80, 0x80, 0x80, 0x80, 0x10}, good[2:]...),
		"zone length overlong":     append([]byte{'N', 3, 0x83, 0x00}, good[3:]...),
		"name length overlong":     append(append(bytes.Clone(good[:6]), 0x89, 0x00), good[7:]...),
	}
	for name, b := range cases {
		if n, err := DecodeNotification(b); err == nil {
			t.Errorf("%s: decode accepted %x as %+v", name, b, n)
		}
	}
}

func TestTablePublishFiltering(t *testing.T) {
	tb := NewTable(metrics.Discard)
	zoneSub := newFakeSink()
	nameSub := newFakeSink()
	otherZone := newFakeSink()
	tb.Add(Subscription{Zone: "hns"}, zoneSub)
	tb.Add(Subscription{Zone: "hns", Names: []string{"a.ctx.hns"}}, nameSub)
	tb.Add(Subscription{Zone: "cs"}, otherZone)

	// A transaction touching the name: zone subscriber and the matching
	// name subscriber, once each.
	if got := tb.Publish(Notification{Zone: "hns", Names: []string{"x.ctx.hns", "a.ctx.hns"}, Serial: 1}); got != 2 {
		t.Fatalf("publish(x, a) notified %d, want 2", got)
	}
	// Other names: only the zone subscriber.
	if got := tb.Publish(Notification{Zone: "hns", Names: []string{"b.ctx.hns", "c.ctx.hns"}, Serial: 2}); got != 1 {
		t.Fatalf("publish(b, c) notified %d, want 1", got)
	}
	// Zone-level event reaches name subscribers too.
	if got := tb.Publish(Notification{Zone: "hns", Serial: 3}); got != 2 {
		t.Fatalf("publish(zone) notified %d, want 2", got)
	}
	if zoneSub.count() != 3 || nameSub.count() != 2 || otherZone.count() != 0 {
		t.Fatalf("delivery counts = %d/%d/%d, want 3/2/0",
			zoneSub.count(), nameSub.count(), otherZone.count())
	}
	// Delivered frames decode back to the notification.
	n, err := DecodeNotification(zoneSub.got[0])
	if err != nil || len(n.Names) != 2 || n.Names[1] != "a.ctx.hns" || n.Serial != 1 {
		t.Fatalf("delivered frame decodes to %+v (%v)", n, err)
	}
	// Two matching subscriptions on one sink (one connection) get one
	// frame: the client end hands it to each subscription it holds there.
	shared := newFakeSink()
	tb.Add(Subscription{Zone: "cs"}, shared)
	tb.Add(Subscription{Zone: "cs", Names: []string{"b.cs"}}, shared)
	if got := tb.Publish(Notification{Zone: "cs", Names: []string{"b.cs"}, Serial: 4}); got != 2 || shared.count() != 1 {
		t.Fatalf("publish(cs b) notified %d sinks, the shared one %d times; want 2 sinks, once", got, shared.count())
	}
}

func TestTableOverflowRefuses(t *testing.T) {
	tb := NewTable(metrics.Discard)
	sink := newFakeSink()
	defer sink.close()
	var last uint64
	for i := 0; i < DefaultMaxSubscribers; i++ {
		id, ok := tb.Add(Subscription{Zone: "hns"}, sink)
		if !ok {
			t.Fatalf("Add %d of %d refused", i+1, DefaultMaxSubscribers)
		}
		last = id
	}
	if _, ok := tb.Add(Subscription{Zone: "hns"}, newFakeSink()); ok {
		t.Fatal("Add beyond the bound accepted — overflow must refuse so clients poll")
	}
	// Freeing a slot readmits.
	if !tb.Remove(last) {
		t.Fatal("Remove(last) reported absent")
	}
	if _, ok := tb.Add(Subscription{Zone: "hns"}, newFakeSink()); !ok {
		t.Fatal("Add after Remove refused")
	}
	if tb.Len() != DefaultMaxSubscribers {
		t.Fatalf("Len = %d, want %d", tb.Len(), DefaultMaxSubscribers)
	}
}

func TestTableDropsDeadSinkOnPublish(t *testing.T) {
	tb := NewTable(metrics.Discard)
	dead := newFakeSink()
	dead.fail = true
	live := newFakeSink()
	tb.Add(Subscription{Zone: "hns"}, dead)
	tb.Add(Subscription{Zone: "hns"}, live)
	if got := tb.Publish(Notification{Zone: "hns", Serial: 1}); got != 1 {
		t.Fatalf("publish notified %d, want 1 (dead sink dropped)", got)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len after dead-sink publish = %d, want 1", tb.Len())
	}
}

func TestTableDropsSinkOnDone(t *testing.T) {
	tb := NewTable(metrics.Discard)
	dropped := make(chan uint64, 1)
	tb.dropped = dropped
	s := newFakeSink()
	id, _ := tb.Add(Subscription{Zone: "hns"}, s)
	s.close()
	// The watcher goroutine drops it asynchronously, and says so.
	if got := <-dropped; got != id {
		t.Fatalf("dropped subscription %d, want %d", got, id)
	}
	if tb.Len() != 0 {
		t.Fatal("subscription not dropped after sink Done closed")
	}
	// Removing again is a no-op.
	if tb.Remove(999) {
		t.Fatal("Remove of unknown id reported present")
	}
}

func FuzzNotifyDecode(f *testing.F) {
	f.Add(EncodeNotification(Notification{Zone: "hns", Names: []string{"a.ctx.hns"}, Serial: 9}))
	f.Add(EncodeNotification(Notification{Zone: "hns", Names: []string{"q.ns.qc.hns", "n.nsm.hns", "m.ctx.hns"}, Serial: 10}))
	f.Add(EncodeNotification(Notification{Zone: "", Serial: 0}))
	// The golden one-name frame, then its serial overlong, then its serial
	// past 2³²−1: a NOTIFY has no type, so its one ranged field stands in
	// for one.
	for i, frame := range []string{"4e2a03686e730a68302e6374782e686e73", "4eaa0003686e730a68302e6374782e686e73",
		"4e808080801003686e730a68302e6374782e686e73"} {
		b, err := hex.DecodeString(frame)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := DecodeNotification(b); (err == nil) != (i == 0) {
			f.Fatalf("seed %s: decode error %v, want accepted %v", frame, err, i == 0)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := DecodeNotification(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode to the identical bytes —
		// the codec is canonical.
		out := EncodeNotification(n)
		if string(out) != string(data) {
			t.Fatalf("decode/encode not canonical: in=%x out=%x", data, out)
		}
	})
}

// TestTableCallbackSendRule: a callback sink is sent a frame only when one
// of its names is not told there; a read re-arms a name, a zone-level
// event is always sent and clears the set, and a plain subscription on the
// same sink takes every frame.
func TestTableCallbackSendRule(t *testing.T) {
	reg := metrics.NewRegistry()
	tb := NewTable(reg)
	cb, plain := newFakeSink(), newFakeSink()
	tb.Add(Subscription{Zone: "hns", Callback: true}, cb)
	tb.Add(Subscription{Zone: "hns"}, plain)
	a := func(serial uint32, names ...string) Notification {
		return Notification{Zone: "hns", Names: names, Serial: serial}
	}
	steps := []struct {
		do     func()
		wantCB int // frames on the callback sink so far
	}{
		{func() { tb.Publish(a(1, "x.hns")) }, 1}, // a new subscription has told nothing
		{func() { tb.Publish(a(2, "x.hns")) }, 1}, // x is told, unread since
		{func() { tb.Publish(a(3, "x.hns", "y.hns")) }, 2},
		{func() { tb.Publish(a(4, "y.hns", "x.hns")) }, 2},
		{func() { tb.Rearm(cb, "x.hns"); tb.Publish(a(5, "x.hns")) }, 3},
		{func() { tb.Rearm(plain, "x.hns"); tb.Publish(a(6, "x.hns")) }, 3}, // another sink's read
		{func() { tb.Publish(a(7)) }, 4},                                    // zone-level: sent, and clears
		{func() { tb.Publish(a(8, "y.hns")) }, 5},
		{func() { tb.Rearm(cb); tb.Publish(a(9, "y.hns")) }, 6}, // a whole-zone read re-arms all
	}
	for i, st := range steps {
		st.do()
		if got := cb.count(); got != st.wantCB {
			t.Fatalf("step %d: callback sink has %d frames, want %d", i, got, st.wantCB)
		}
	}
	if got := plain.count(); got != len(steps) {
		t.Fatalf("plain sink has %d frames, want every one of %d", got, len(steps))
	}
	if got := reg.Counter("push_notify_suppressed_total").Value(); got != int64(len(steps)-6) {
		t.Fatalf("push_notify_suppressed_total = %d, want %d", got, len(steps)-6)
	}

	// A plain subscription sharing the callback sink takes every frame
	// there; dropping it leaves the sink on the callback rule again.
	id, _ := tb.Add(Subscription{Zone: "hns"}, cb)
	tb.Publish(a(10, "y.hns"))
	tb.Remove(id)
	tb.Publish(a(11, "y.hns"))
	if got := cb.count(); got != 7 {
		t.Fatalf("callback sink with a plain subscription beside it has %d frames, want 7", got)
	}
}

// TestTableToldIsBounded: at maxTold names the set is cleared, which can
// only send frames, never skip one.
func TestTableToldIsBounded(t *testing.T) {
	tb := NewTable(metrics.Discard)
	s := newFakeSink()
	tb.Add(Subscription{Zone: "hns", Callback: true}, s)
	for i := 0; i < maxTold; i++ {
		tb.Publish(Notification{Zone: "hns", Names: []string{fmt.Sprintf("n%d.hns", i)}, Serial: uint32(i + 1)})
	}
	tb.Publish(Notification{Zone: "hns", Names: []string{"n0.hns"}, Serial: maxTold + 1})
	if got := s.count(); got != maxTold {
		t.Fatalf("%d frames before the bound, want %d (n0 still told)", got, maxTold)
	}
	tb.Publish(Notification{Zone: "hns", Names: []string{"past.hns"}, Serial: maxTold + 2}) // clears, then tells past
	tb.Publish(Notification{Zone: "hns", Names: []string{"n0.hns"}, Serial: maxTold + 3})
	if got := s.count(); got != maxTold+2 {
		t.Fatalf("%d frames after the bound, want %d (the set cleared)", got, maxTold+2)
	}
}

// TestTableRearmAndSuppressAllocNothing prices the callback hooks: a read
// on a sink with no callback subscription, a re-arm, and a publish owed to
// no sink allocate nothing.
func TestTableRearmAndSuppressAllocNothing(t *testing.T) {
	tb := NewTable(metrics.Discard)
	cb, other := newFakeSink(), newFakeSink()
	tb.Add(Subscription{Zone: "hns", Callback: true}, cb)
	n := Notification{Zone: "hns", Names: []string{"x.hns"}, Serial: 1}
	tb.Publish(n)
	for name, f := range map[string]func(){
		"read, no callback subscription": func() { tb.Rearm(other, "x.hns") },
		"suppressed publish":             func() { tb.Publish(n) },
		"read of an untold name":         func() { tb.Rearm(cb, "y.hns") },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs, want 0", name, allocs)
		}
	}
	if cb.count() != 1 {
		t.Fatalf("callback sink has %d frames, want 1", cb.count())
	}
}
