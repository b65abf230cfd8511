package core

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/qclass"
	"hns/internal/transport"
)

// holdingFinder always promises and lets its answers be kept for an hour;
// an armed findKeep tells entered and waits for release before answering.
type holdingFinder struct {
	tab              *push.Table
	calls            atomic.Int64
	armed            atomic.Bool
	entered, release chan struct{}
}

func (f *holdingFinder) FindContextNSM(ctx context.Context, cx, qc string) (hrpc.Binding, error) {
	b, _, err := f.findKeep(ctx, cx, qc)
	return b, err
}

func (f *holdingFinder) findKeep(_ context.Context, cx, _ string) (hrpc.Binding, time.Duration, error) {
	f.calls.Add(1)
	if f.armed.CompareAndSwap(true, false) {
		f.entered <- struct{}{}
		<-f.release
	}
	return hrpc.Binding{Addr: "june:" + cx, Transport: "udp", DataRep: "xdr", Control: "sunrpc",
		Program: qclass.ProgHRPCBinding, Version: qclass.NSMVersion}, time.Hour, nil
}

func (f *holdingFinder) promise(context.Context) bool { return true }
func (f *holdingFinder) relays() *push.Table          { return f.tab }

// TestRelayOvertakesMiss: a watching RemoteHNS answers a kept context with
// no call, drops it when a relay names it, and does not keep a miss that a
// relay overtook while it was in flight — the supersede rule of
// cache.TTL.Fill.
func TestRelayOvertakesMiss(t *testing.T) {
	n := transport.NewNetwork()
	f := &holdingFinder{tab: push.NewTable(metrics.Discard), entered: make(chan struct{}), release: make(chan struct{})}
	srv := NewFinderServer(f, "hns-hold")
	srv.Metrics = metrics.Discard
	ln, hb, err := hrpc.Serve(n, srv, hrpc.SuiteRaw, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := hrpc.NewClient(n)
	c.Metrics = metrics.Discard
	defer c.Close()
	r := NewRemoteHNS(c, hb)
	ctx := context.Background()
	asks := func(what string, want int64) {
		t.Helper()
		calls := f.calls.Load()
		if _, err := r.FindContextNSM(ctx, "svc", qclass.HRPCBinding); err != nil {
			t.Fatal(err)
		}
		if got := f.calls.Load() - calls; got != want {
			t.Fatalf("%s asked the server %d times, want %d", what, got, want)
		}
	}
	relay := func() { f.tab.Publish(push.Notification{Names: []string{"svc"}}) }

	asks("the unwatched first FindNSM", 1)
	if !r.live() {
		t.Fatal("no watch stands after the first exchange")
	}
	asks("a miss", 1)
	asks("a kept answer", 0)
	relay()
	asks("the FindNSM after a relay", 1)
	asks("a kept answer", 0)

	relay()
	f.armed.Store(true)
	done := make(chan error)
	go func() {
		_, err := r.FindContextNSM(ctx, "svc", qclass.HRPCBinding)
		done <- err
	}()
	<-f.entered
	relay()
	close(f.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	asks("the FindNSM after a miss a relay overtook", 1)
	asks("a kept answer", 0)

	c.Close() // the watched connection dies
	if r.memo.Len() != 0 || r.live() {
		t.Fatalf("after the connection died: %d answers kept, watch standing %v; want none", r.memo.Len(), r.live())
	}
}

// TestMemoConcurrent runs FindNSMs on several goroutines against a
// watching RemoteHNS while relays land; every call answers, and once the
// relays stop a kept answer is still a hit.
func TestMemoConcurrent(t *testing.T) {
	n := transport.NewNetwork()
	f := &holdingFinder{tab: push.NewTable(metrics.Discard)}
	srv := NewFinderServer(f, "hns-hold")
	srv.Metrics = metrics.Discard
	ln, hb, err := hrpc.Serve(n, srv, hrpc.SuiteRaw, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := hrpc.NewClient(n)
	c.Metrics = metrics.Discard
	defer c.Close()
	r := NewRemoteHNS(c, hb)
	ctx := context.Background()
	contexts := []string{"svc", "other", "third"}
	errs := make(chan error, 8)
	for g := range cap(errs) {
		go func() {
			var err error
			for i := 0; i < 200 && err == nil; i++ {
				_, err = r.FindContextNSM(ctx, contexts[(g+i)%len(contexts)], qclass.HRPCBinding)
			}
			errs <- err
		}()
	}
	for i := range 100 {
		f.tab.Publish(push.Notification{Names: contexts[i%len(contexts):][:1]})
		if i%10 == 0 {
			f.tab.Publish(push.Notification{})
		}
	}
	for range cap(errs) {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for range 2 {
		if _, err := r.FindContextNSM(ctx, "svc", qclass.HRPCBinding); err != nil {
			t.Fatal(err)
		}
	}
	calls := f.calls.Load()
	if _, err := r.FindContextNSM(ctx, "svc", qclass.HRPCBinding); err != nil || f.calls.Load() != calls {
		t.Fatalf("a kept answer after the relays stopped: %v, %d calls upstream", err, f.calls.Load()-calls)
	}
}

// FuzzRelayFrame hands a watching RemoteHNS arbitrary tag-0 bodies: none
// may panic, a frame push.DecodeNotification refuses or a zone-level one
// drops every kept answer, and one naming contexts drops just theirs.
func FuzzRelayFrame(f *testing.F) {
	f.Add(push.EncodeNotification(push.Notification{Names: []string{"svc"}, Serial: 7}))
	f.Add(push.EncodeNotification(push.Notification{Names: []string{"other", "svc"}, Serial: 70000}))
	f.Add(push.EncodeNotification(push.Notification{Serial: 7}))
	f.Add([]byte{})
	f.Add([]byte("N"))
	f.Add([]byte("N\x07\x00\x00"))
	contexts := []string{"svc", "other"}
	f.Fuzz(func(t *testing.T, body []byte) {
		r := NewRemoteHNS(hrpc.NewClient(transport.NewNetwork()), hrpc.Binding{})
		for _, cx := range contexts {
			r.memo.Put(memoKey(cx, qclass.HRPCBinding), memoEntry{}, time.Hour)
		}
		r.hear(body, nil)
		n, err := push.DecodeNotification(body)
		if err != nil || n.Names == nil {
			if r.memo.Len() != 0 {
				t.Fatalf("%d answers kept after the frame %q (decode: %v)", r.memo.Len(), body, err)
			}
			return
		}
		for _, cx := range contexts {
			if _, kept := r.memo.Get(memoKey(cx, qclass.HRPCBinding)); kept == slices.Contains(n.Names, cx) {
				t.Fatalf("after a relay naming %q, %s kept = %v", n.Names, cx, kept)
			}
		}
	})
}
