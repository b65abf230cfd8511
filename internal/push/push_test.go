package push

import (
	"bytes"
	"encoding/hex"
	"errors"
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

// The one-name and zone-level frames are the bytes they were before a
// frame could name a transaction's several owners.
func TestNotificationGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		n    Notification
		want string
	}{
		{Notification{Zone: "hns", Names: []string{"h0.ctx.hns"}, Serial: 42}, "4e0000002a0003686e73000a68302e6374782e686e73"},
		{Notification{Zone: "hns", Serial: 42}, "4e0000002a0003686e730000"},
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
		"short serial":             good[:3],
		"short zone len":           good[:6],
		"short zone":               good[:8],
		"no name":                  good[:10],
		"trailing":                 append(bytes.Clone(good), 0xFF),
		"empty name after a name":  append(bytes.Clone(good), 0, 0),
		"empty name before a name": append(append(bytes.Clone(good[:10]), 0, 0), good[10:]...),
		"name cut short":           two[:len(two)-1],
	}
	for name, b := range cases {
		if n, err := DecodeNotification(b); err == nil {
			t.Errorf("%s: decode accepted %x as %+v", name, b, n)
		}
	}
}

func TestTablePublishFiltering(t *testing.T) {
	tb := NewTable(0, metrics.Discard)
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
}

func TestTableOverflowRefuses(t *testing.T) {
	tb := NewTable(2, metrics.Discard)
	if _, ok := tb.Add(Subscription{Zone: "hns"}, newFakeSink()); !ok {
		t.Fatal("first Add refused")
	}
	id2, ok := tb.Add(Subscription{Zone: "hns"}, newFakeSink())
	if !ok {
		t.Fatal("second Add refused")
	}
	if _, ok := tb.Add(Subscription{Zone: "hns"}, newFakeSink()); ok {
		t.Fatal("Add beyond the bound accepted — overflow must refuse so clients poll")
	}
	// Freeing a slot readmits.
	if !tb.Remove(id2) {
		t.Fatal("Remove(id2) reported absent")
	}
	if _, ok := tb.Add(Subscription{Zone: "hns"}, newFakeSink()); !ok {
		t.Fatal("Add after Remove refused")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
}

func TestTableDropsDeadSinkOnPublish(t *testing.T) {
	tb := NewTable(0, metrics.Discard)
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
	tb := NewTable(0, metrics.Discard)
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
	f.Add([]byte{'N', 0, 0, 0})
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
