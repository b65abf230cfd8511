package hrpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// countingTransport wraps a transport and counts dials, so pool tests
// can assert exactly when a new connection was opened.
type countingTransport struct {
	transport.Transport
	dials atomic.Int64
}

func (ct *countingTransport) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	ct.dials.Add(1)
	return ct.Transport.Dial(ctx, addr)
}

// muxKillServer is a raw TCP backend that dies mid-conversation: it
// accepts one multiplexed connection, answers the first request (so the
// client pools the connection), swallows the next kill requests without
// replying, then closes its listener and the connection — a server
// crashing with kill calls in flight, redials refused.
func muxKillServer(t *testing.T, kill int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.SetDeadline(time.Now().Add(10 * time.Second))
		readFrame := func() (uint32, bool) {
			var hdr [8]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return 0, false
			}
			n := binary.BigEndian.Uint32(hdr[4:])
			if _, err := io.CopyN(io.Discard, c, int64(n)); err != nil {
				return 0, false
			}
			return binary.BigEndian.Uint32(hdr[:4]), true
		}
		var pre [4]byte
		if _, err := io.ReadFull(c, pre[:]); err != nil {
			c.Close()
			return
		}
		if tag, ok := readFrame(); ok {
			reply := binary.BigEndian.AppendUint32(nil, tag)
			reply = binary.BigEndian.AppendUint32(reply, 9)
			reply = append(reply, make([]byte, 8)...) // zero simulated cost
			reply = append(reply, 0)                  // statusOK, empty payload
			_, _ = c.Write(reply)
		}
		for i := 0; i < kill; i++ {
			if _, ok := readFrame(); !ok {
				break
			}
		}
		ln.Close() // refuse redials before breaking the stream
		c.Close()
	}()
	return ln.Addr().String()
}

// TestMuxTeardownOneBreakerFailure kills a multiplexed connection with
// many calls in flight and checks the failure contract end to end: every
// caller gets an error the availability machinery understands (matching
// transport.ErrConnBroken and Unavailable), all callers surface the same
// broken connection, and the endpoint's breaker records exactly one
// failure — not one per in-flight call.
func TestMuxTeardownOneBreakerFailure(t *testing.T) {
	for _, inflight := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("inflight=%d", inflight), func(t *testing.T) {
			addr := muxKillServer(t, inflight)
			n := transport.NewNetwork()
			tr, err := n.Transport("tcp-net")
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			c := NewClient(n)
			c.Metrics = reg
			defer c.Close()
			ctx := context.Background()

			// Warm-up call: establishes and pools the one connection all
			// the doomed calls will share.
			if _, _, err := c.roundTrip(ctx, tr, addr, []byte("warm"), budgetState{}); err != nil {
				t.Fatalf("warm-up call: %v", err)
			}

			errs := make([]error, inflight)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _, errs[i] = c.roundTrip(ctx, tr, addr, []byte("doomed"), budgetState{})
				}(i)
			}
			wg.Wait()

			ids := make(map[uint64]bool)
			for i, err := range errs {
				if err == nil {
					t.Fatalf("call %d: expected error, got success", i)
				}
				if !errors.Is(err, transport.ErrConnBroken) {
					t.Fatalf("call %d: error %v does not match ErrConnBroken", i, err)
				}
				if !Unavailable(err) {
					t.Fatalf("call %d: error %v not Unavailable", i, err)
				}
				var cb *transport.ConnBrokenError
				if !errors.As(err, &cb) {
					t.Fatalf("call %d: error %v carries no *ConnBrokenError", i, err)
				}
				ids[cb.ConnID] = true
			}
			if len(ids) != 1 {
				t.Fatalf("in-flight calls saw %d distinct broken connections, want 1", len(ids))
			}
			failures := reg.Counter(metrics.Labels("breaker_failures_total",
				"service", "hrpc", "endpoint", addr)).Value()
			if failures != 1 {
				t.Fatalf("breaker_failures_total = %d, want 1 (one dead connection, not one per call)", failures)
			}
		})
	}
}

// TestMuxPoolIdleEviction checks the idle-timeout half of satellite 1:
// a connection that sits unused past Pool.IdleTimeout is closed on the
// next acquire and replaced by a fresh dial; before the deadline it is
// reused.
func TestMuxPoolIdleEviction(t *testing.T) {
	n := transport.NewNetwork()
	inner, err := n.Transport("udp")
	if err != nil {
		t.Fatal(err)
	}
	echo := func(ctx context.Context, req []byte) ([]byte, error) { return req, nil }
	ln, err := inner.Listen("idle:1", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ct := &countingTransport{Transport: inner}

	clk := simtime.NewFakeClock(time.Unix(563328000, 0))
	reg := metrics.NewRegistry()
	c := NewClient(n)
	c.Metrics = reg
	c.Pool = PoolConfig{IdleTimeout: time.Minute, Clock: clk}
	defer c.Close()

	call := func() {
		t.Helper()
		if _, _, err := c.roundTrip(context.Background(), ct, "idle:1", []byte("ping"), budgetState{}); err != nil {
			t.Fatal(err)
		}
	}
	poolSize := reg.Gauge(metrics.Labels("conn_pool_size", "addr", "idle:1"))

	call()
	call()
	if d := ct.dials.Load(); d != 1 {
		t.Fatalf("dials after two back-to-back calls = %d, want 1 (connection reused)", d)
	}
	clk.Advance(59 * time.Second)
	call()
	if d := ct.dials.Load(); d != 1 {
		t.Fatalf("dials before the idle deadline = %d, want 1", d)
	}
	clk.Advance(60 * time.Second)
	call()
	if d := ct.dials.Load(); d != 2 {
		t.Fatalf("dials after the idle deadline = %d, want 2 (stale connection evicted)", d)
	}
	if s := poolSize.Value(); s != 1 {
		t.Fatalf("conn_pool_size = %d, want 1 (evicted connection replaced, not accumulated)", s)
	}
}

// muxEchoServer is a raw TCP backend that can die the way a process does:
// stop closes the listener and every accepted connection. It echoes each
// multiplexed request and counts them.
type muxEchoServer struct {
	ln       net.Listener
	requests atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

func startMuxEchoServer(t *testing.T, addr string) *muxEchoServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := &muxEchoServer{ln: ln}
	t.Cleanup(s.stop)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			go s.serve(c)
		}
	}()
	return s
}

func (s *muxEchoServer) serve(c net.Conn) {
	var pre [4]byte
	if _, err := io.ReadFull(c, pre[:]); err != nil {
		return
	}
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
		if _, err := io.ReadFull(c, body); err != nil {
			return
		}
		s.requests.Add(1)
		reply := append([]byte(nil), hdr[:4]...)
		reply = binary.BigEndian.AppendUint32(reply, uint32(1+len(body)))
		reply = append(reply, 0) // statusOK
		if _, err := c.Write(append(reply, body...)); err != nil {
			return
		}
	}
}

func (s *muxEchoServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
}

// TestPooledClientSurvivesServerRestart: a client that keeps its connection
// (hnsd's, to its meta-BIND) outlives the server behind it. The server dies
// and comes back at the same address between two calls; the second call
// finds its pooled connection dead, redials once and succeeds — no error
// surfaces, the endpoint's breaker hears nothing, and a configured replica
// is not bothered.
func TestPooledClientSurvivesServerRestart(t *testing.T) {
	for _, withReplica := range []bool{false, true} {
		t.Run(fmt.Sprintf("replica=%v", withReplica), func(t *testing.T) {
			n := transport.NewNetwork()
			inner, err := n.Transport("tcp-net")
			if err != nil {
				t.Fatal(err)
			}
			ct := &countingTransport{Transport: inner}
			reg := metrics.NewRegistry()
			c := NewClient(n)
			c.Metrics = reg
			defer c.Close()

			primary := startMuxEchoServer(t, "127.0.0.1:0")
			addr := primary.ln.Addr().String()
			var replica *muxEchoServer
			if withReplica {
				replica = startMuxEchoServer(t, "127.0.0.1:0")
				c.SetReplicas(addr, replica.ln.Addr().String())
			}
			call := func(step string) {
				t.Helper()
				resp, ep, err := c.roundTrip(context.Background(), ct, addr, []byte(step), budgetState{})
				if err != nil || string(resp) != step || ep != addr {
					t.Fatalf("%s: reply %q from %s, err %v", step, resp, ep, err)
				}
			}
			call("first")
			call("second")
			if d := ct.dials.Load(); d != 1 {
				t.Fatalf("dials after two calls = %d, want 1 (connection pooled)", d)
			}

			primary.stop()
			restarted := startMuxEchoServer(t, addr)
			call("after restart")
			if d := ct.dials.Load(); d != 2 {
				t.Fatalf("dials after the restart = %d, want 2 (one redial)", d)
			}
			if got := restarted.requests.Load(); got != 1 {
				t.Fatalf("restarted server saw %d requests, want 1", got)
			}
			if f := reg.Counter(metrics.Labels("breaker_failures_total",
				"service", "hrpc", "endpoint", addr)).Value(); f != 0 {
				t.Fatalf("breaker_failures_total = %d, want 0 (a stale connection is not a dead endpoint)", f)
			}
			if withReplica {
				if got := replica.requests.Load(); got != 0 {
					t.Fatalf("replica saw %d requests, want 0", got)
				}
			}
		})
	}
}

// TestMuxClientCloseIdle checks the explicit-eviction half of satellite
// 1: CloseIdle closes every connection with no call in flight, spares
// busy ones, and drops emptied endpoint entries so the per-endpoint map
// no longer grows without bound.
func TestMuxClientCloseIdle(t *testing.T) {
	n := transport.NewNetwork()
	inner, err := n.Transport("udp")
	if err != nil {
		t.Fatal(err)
	}
	arrive := make(chan struct{}, 8)
	release := make(chan struct{})
	blockable := func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "block" {
			arrive <- struct{}{}
			<-release
		}
		return req, nil
	}
	echo := func(ctx context.Context, req []byte) ([]byte, error) { return req, nil }
	lnA, err := inner.Listen("ci-a:1", blockable)
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()
	lnB, err := inner.Listen("ci-b:1", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()
	ct := &countingTransport{Transport: inner}

	c := NewClient(n)
	c.Metrics = metrics.NewRegistry()
	defer c.Close()
	ctx := context.Background()

	call := func(addr, payload string) error {
		_, _, err := c.roundTrip(ctx, ct, addr, []byte(payload), budgetState{})
		return err
	}
	if err := call("ci-a:1", "ping"); err != nil {
		t.Fatal(err)
	}
	if err := call("ci-b:1", "ping"); err != nil {
		t.Fatal(err)
	}
	if d := ct.dials.Load(); d != 2 {
		t.Fatalf("dials = %d, want 2", d)
	}

	// Park a call in flight on a's connection, then CloseIdle: only b's
	// idle connection may be closed.
	done := make(chan error, 1)
	go func() { done <- call("ci-a:1", "block") }()
	<-arrive
	if got := c.CloseIdle(); got != 1 {
		t.Fatalf("CloseIdle with one call in flight = %d closed, want 1 (the idle one)", got)
	}
	c.mu.Lock()
	remaining := len(c.pools)
	c.mu.Unlock()
	if remaining != 1 {
		t.Fatalf("pools after CloseIdle = %d entries, want 1 (emptied entries dropped)", remaining)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight call across CloseIdle: %v", err)
	}

	// Everything is idle now: CloseIdle empties the map entirely.
	if got := c.CloseIdle(); got != 1 {
		t.Fatalf("second CloseIdle = %d closed, want 1", got)
	}
	c.mu.Lock()
	remaining = len(c.pools)
	c.mu.Unlock()
	if remaining != 0 {
		t.Fatalf("pools after draining CloseIdle = %d entries, want 0", remaining)
	}
	// And the client recovers: the next call simply dials again.
	if err := call("ci-b:1", "ping"); err != nil {
		t.Fatal(err)
	}
	if d := ct.dials.Load(); d != 3 {
		t.Fatalf("dials after recovery call = %d, want 3", d)
	}
}

// gatedTransport parks every Dial until gate closes, announcing it on
// dialing first, so a test can act while an acquire is mid-dial.
type gatedTransport struct {
	countingTransport
	dialing chan struct{}
	gate    chan struct{}
}

func (g *gatedTransport) Dial(ctx context.Context, addr string) (transport.Conn, error) {
	g.dialing <- struct{}{}
	<-g.gate
	return g.countingTransport.Dial(ctx, addr)
}

// TestDialRacingCloseIdleStaysPooled: a CloseIdle sweep that runs while
// a call is dialing drops the still-empty pool entry; the new connection
// must still land in the client's pool — reused by the next call, and
// closed by the next sweep — rather than in an orphaned entry nothing
// ever closes.
func TestDialRacingCloseIdleStaysPooled(t *testing.T) {
	n := transport.NewNetwork()
	inner, err := n.Transport("udp")
	if err != nil {
		t.Fatal(err)
	}
	echo := func(ctx context.Context, req []byte) ([]byte, error) { return req, nil }
	ln, err := inner.Listen("race:1", echo)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gt := &gatedTransport{
		countingTransport: countingTransport{Transport: inner},
		dialing:           make(chan struct{}, 4),
		gate:              make(chan struct{}),
	}
	c := NewClient(n)
	c.Metrics = metrics.NewRegistry()
	defer c.Close()
	call := func() error {
		_, _, err := c.roundTrip(context.Background(), gt, "race:1", []byte("ping"), budgetState{})
		return err
	}

	done := make(chan error, 1)
	go func() { done <- call() }()
	<-gt.dialing
	if got := c.CloseIdle(); got != 0 {
		t.Fatalf("CloseIdle mid-dial closed %d connections, want 0", got)
	}
	close(gt.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := call(); err != nil {
		t.Fatal(err)
	}
	if d := gt.dials.Load(); d != 1 {
		t.Fatalf("dials = %d, want 1 (the connection dialed across CloseIdle was orphaned)", d)
	}
	if got := c.CloseIdle(); got != 1 {
		t.Fatalf("CloseIdle closed %d connections, want the 1 pooled", got)
	}
}

// TestMuxPoolGrowsAtStreamCap checks PoolConfig sizing: with
// MaxStreams=1 a second concurrent call opens a second connection, and
// once MaxConns is reached further calls overflow onto the least-loaded
// connection instead of dialing or queueing.
func TestMuxPoolGrowsAtStreamCap(t *testing.T) {
	n := transport.NewNetwork()
	inner, err := n.Transport("udp")
	if err != nil {
		t.Fatal(err)
	}
	arrive := make(chan struct{}, 8)
	release := make(chan struct{})
	block := func(ctx context.Context, req []byte) ([]byte, error) {
		arrive <- struct{}{}
		<-release
		return req, nil
	}
	ln, err := inner.Listen("grow:1", block)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ct := &countingTransport{Transport: inner}

	reg := metrics.NewRegistry()
	c := NewClient(n)
	c.Metrics = reg
	c.Pool = PoolConfig{MaxConns: 2, MaxStreams: 1}
	defer c.Close()

	done := make(chan error, 3)
	start := func() {
		go func() {
			_, _, err := c.roundTrip(context.Background(), ct, "grow:1", []byte("ping"), budgetState{})
			done <- err
		}()
	}
	inflight := reg.Gauge(metrics.Labels("conn_inflight", "addr", "grow:1"))
	poolSize := reg.Gauge(metrics.Labels("conn_pool_size", "addr", "grow:1"))

	start() // first call: dials connection 1
	<-arrive
	if d := ct.dials.Load(); d != 1 {
		t.Fatalf("dials after first call = %d, want 1", d)
	}
	start() // connection 1 is at its stream cap: dials connection 2
	<-arrive
	if d := ct.dials.Load(); d != 2 {
		t.Fatalf("dials with second concurrent call = %d, want 2 (stream cap forces growth)", d)
	}
	if s := poolSize.Value(); s != 2 {
		t.Fatalf("conn_pool_size = %d, want 2", s)
	}
	start() // pool at MaxConns: overflow rides a connection, no dial, no queue
	<-arrive
	if d := ct.dials.Load(); d != 2 {
		t.Fatalf("dials with overflow call = %d, want 2 (MaxConns caps growth)", d)
	}
	if f := inflight.Value(); f != 3 {
		t.Fatalf("conn_inflight = %d, want 3", f)
	}

	close(release)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if f := inflight.Value(); f != 0 {
		t.Fatalf("conn_inflight after completion = %d, want 0", f)
	}
	if s := poolSize.Value(); s != 2 {
		t.Fatalf("conn_pool_size after completion = %d, want 2 (connections stay pooled)", s)
	}
}

// TestMuxHRPCConcurrentEcho drives the full client stack — marshalling,
// control protocol, pooled multiplexed TCP — with many concurrent
// callers sharing a small pool, checking that every reply reaches its
// caller intact (no cross-stream mixups under -race).
func TestMuxHRPCConcurrentEcho(t *testing.T) {
	n := transport.NewNetwork()
	b, stop := newEchoServer(t, n, SuiteCourierNet, "fiji", "127.0.0.1:0")
	defer stop()
	c := NewClient(n)
	c.Pool = PoolConfig{MaxConns: 2, MaxStreams: 16}
	defer c.Close()

	const callers = 64
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				want := fmt.Sprintf("caller-%d-call-%d", i, k)
				ret, err := c.Call(context.Background(), b, echoProc,
					marshal.StructV(marshal.Str(want)))
				if err != nil {
					errs[i] = err
					return
				}
				if got, _ := ret.Items[0].AsString(); got != want {
					errs[i] = fmt.Errorf("echo = %q, want %q", got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
}
