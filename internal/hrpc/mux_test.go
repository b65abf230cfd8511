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
// transport.ErrConnBroken, coded unreachable), all callers surface the same
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
			if _, _, err := c.roundTrip(ctx, tr, addr, []byte("warm"), budgetState{}, nil); err != nil {
				t.Fatalf("warm-up call: %v", err)
			}

			errs := make([]error, inflight)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _, errs[i] = c.roundTrip(ctx, tr, addr, []byte("doomed"), budgetState{}, nil)
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
				if !transport.CodeOf(err).Unreachable() {
					t.Fatalf("call %d: error %v not unreachable", i, err)
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
				resp, ep, err := c.roundTrip(context.Background(), ct, addr, []byte(step), budgetState{}, nil)
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

// TestMuxHRPCConcurrentEcho drives the full client stack — marshalling,
// control protocol, multiplexed TCP — with many concurrent callers
// sharing the endpoint's one connection, checking that every reply
// reaches its caller intact (no cross-stream mixups under -race) and
// that the burst never opened a second connection.
func TestMuxHRPCConcurrentEcho(t *testing.T) {
	n := transport.NewNetwork()
	b, stop := newEchoServer(t, n, SuiteCourierNet, "fiji", "127.0.0.1:0")
	defer stop()
	reg := metrics.NewRegistry()
	c := NewClient(n)
	c.Metrics = reg
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
	size := reg.Gauge(metrics.Labels("conn_pool_size", "addr", b.Addr)).Value()
	if size != 1 {
		t.Fatalf("conn_pool_size = %d after the burst, want 1", size)
	}
}
