package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/bufpool"
	"hns/internal/metrics"
	"hns/internal/simtime"
)

// ---- Tagged frame codec.

func TestMuxFrameCodecRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte(""), []byte("x"), bytes.Repeat([]byte("mux"), 500)} {
		out, err := frameMuxRequest(7, payload)
		if err != nil {
			t.Fatal(err)
		}
		tag, body, err := readMuxFramePooled(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		if tag != 7 {
			t.Fatalf("tag = %d, want 7", tag)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("body = %q, want %q", body, payload)
		}
	}
}

func TestMuxFrameOversize(t *testing.T) {
	big := make([]byte, MaxFrame+1)
	if _, err := frameMuxRequest(1, big); err == nil {
		t.Fatal("oversized mux request accepted")
	}
	if _, err := encodeMuxReplyFramed(1, big, nil); err == nil {
		t.Fatal("oversized mux reply accepted")
	}
}

// TestMuxPreambleUnambiguous pins the choice of magic: read as a length
// prefix the preamble must exceed MaxFrame, so no length-prefixed stream
// can open with those four bytes by accident.
func TestMuxPreambleUnambiguous(t *testing.T) {
	if v := binary.BigEndian.Uint32(muxPreamble[:]); v <= MaxFrame {
		t.Fatalf("preamble %x decodes as legal frame length %d", muxPreamble, v)
	}
}

// ---- TCP multiplexing.

func TestTCPMuxConcurrentCallsOneConn(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	ln, err := tr.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*muxCore); !ok {
		t.Fatalf("tcp-net dialed %T, want multiplexed conn", conn)
	}

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("payload-%d", i)
			got, err := conn.Call(context.Background(), []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("call %d: got %q, want %q — replies crossed streams", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTCPMuxSlowCallDoesNotBlockFast is the head-of-line proof: a fast
// call issued while a slow one is in flight on the same connection
// returns long before the slow one completes.
func TestTCPMuxSlowCallDoesNotBlockFast(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	slow := make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "slow" {
			<-slow
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := conn.Call(context.Background(), []byte("slow"))
		slowDone <- err
	}()
	// The fast call must complete while the slow handler is still parked.
	fastCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := conn.Call(fastCtx, []byte("fast")); err != nil {
		t.Fatalf("fast call blocked behind slow one: %v", err)
	}
	close(slow)
	if err := <-slowDone; err != nil {
		t.Fatalf("slow call: %v", err)
	}
}

// TestTCPPlainFramingRejected: a client that skips the preamble and
// writes a plain length-prefixed frame is not speaking the protocol —
// the listener closes the connection and the handler never runs.
func TestTCPPlainFramingRejected(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	var handled atomic.Int32
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		handled.Add(1)
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeFrame(c, []byte("untagged")); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The server closes without replying: EOF, or a reset because it
	// closed with our bytes unread.
	var one [1]byte
	if n, err := c.Read(one[:]); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read after plain frame = %d bytes, err %v; want the connection closed", n, err)
	}
	if got := handled.Load(); got != 0 {
		t.Fatalf("handler ran %d times for a connection without the preamble", got)
	}
}

// TestTCPOversizeReplyIsRemoteError: a reply too large to frame is
// answered at once with an error on the same tag, not with silence.
func TestTCPOversizeReplyIsRemoteError(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "big" {
			return make([]byte, MaxFrame), nil // envelope pushes it past the limit
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = conn.Call(ctx, []byte("big"))
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "exceeds frame limit") {
		t.Fatalf("oversize reply surfaced as %v, want RemoteError naming the frame limit", err)
	}
	// The connection carries on.
	if got, err := conn.Call(ctx, []byte("after")); err != nil || string(got) != "after" {
		t.Fatalf("call after oversize reply = %q, %v", got, err)
	}
}

// TestMuxTagWrapSkipsReservedAndPending: when the tag counter wraps on a
// long-lived connection, allocation must step over the reserved push
// tag and over tags slow calls still hold.
func TestMuxTagWrapSkipsReservedAndPending(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	entered, block := make(chan struct{}), make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "slow" {
			close(entered)
			<-block
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	m := conn.(*muxCore)

	slow := make(chan error, 1)
	go func() { // holds tag 1 across the wrap
		got, err := conn.Call(context.Background(), []byte("slow"))
		if err == nil && string(got) != "slow" {
			err = fmt.Errorf("slow call got %q", got)
		}
		slow <- err
	}()
	<-entered
	m.mu.Lock()
	m.nextTag = ^uint32(0)
	m.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, want := range []string{"first", "second"} {
		got, err := conn.Call(ctx, []byte(want))
		if err != nil || string(got) != want {
			t.Fatalf("call after wrap = %q, %v; want %q", got, err, want)
		}
	}
	m.mu.Lock()
	next := m.nextTag
	m.mu.Unlock()
	if next != 3 {
		t.Fatalf("after the wrap two calls ended on tag %d, want 3 (0 reserved, 1 pending)", next)
	}
	close(block)
	if err := <-slow; err != nil {
		t.Fatalf("call pending across the wrap: %v", err)
	}
}

// TestTCPMuxServerSubsliceOwnership is the recycling-hazard regression
// test: with concurrent dispatch, each request owns its pooled buffer
// until its reply is encoded, so a handler returning a subslice of its
// request must stay correct under many distinct in-flight payloads.
// Run under -race (the smoke mux tier does).
func TestTCPMuxServerSubsliceOwnership(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		return req[2:], nil // subslice of the pooled request buffer
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const callers = 64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("%02d:distinct-body-%d", i, i)
			got, err := conn.Call(context.Background(), []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want[2:] {
				errs <- fmt.Errorf("call %d: got %q, want %q — request buffer recycled under handler", i, got, want[2:])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxTeardownFailsAllPending kills the server socket with calls in
// flight and asserts correct teardown: every pending caller gets the
// same typed *ConnBrokenError (one ConnID), the error's code is
// unreachable, and later calls on the dead conn fail the same way.
func TestMuxTeardownFailsAllPending(t *testing.T) {
	const pending = 32
	// A raw TCP server that consumes the preamble plus `pending` tagged
	// requests, replies to none, then slams the connection.
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		c, err := raw.Accept()
		if err != nil {
			return
		}
		var preamble [4]byte
		if _, err := io.ReadFull(c, preamble[:]); err != nil {
			return
		}
		for i := 0; i < pending; i++ {
			var hdr [8]byte
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			body := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
			if _, err := io.ReadFull(c, body); err != nil {
				return
			}
		}
		c.Close()
	}()

	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	conn, err := tr.Dial(context.Background(), raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	errCh := make(chan error, pending)
	var wg sync.WaitGroup
	for i := 0; i < pending; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := conn.Call(context.Background(), []byte("doomed"))
			errCh <- err
		}()
	}
	wg.Wait()
	close(errCh)

	ids := make(map[uint64]int)
	count := 0
	for err := range errCh {
		count++
		var cb *ConnBrokenError
		if !errors.As(err, &cb) {
			t.Fatalf("pending call got %v, want *ConnBrokenError", err)
		}
		if !errors.Is(err, ErrConnBroken) {
			t.Fatalf("error %v does not match ErrConnBroken", err)
		}
		if !CodeOf(err).Unreachable() {
			t.Fatalf("broken-conn error %v not classed unreachable", err)
		}
		ids[cb.ConnID]++
	}
	if count != pending {
		t.Fatalf("got %d errors, want %d", count, pending)
	}
	if len(ids) != 1 {
		t.Fatalf("pending calls saw %d distinct ConnIDs, want 1: %v", len(ids), ids)
	}
	// The conn stays broken: a later call fails immediately with the
	// same identity, without hanging.
	_, err = conn.Call(context.Background(), []byte("late"))
	var cb *ConnBrokenError
	if !errors.As(err, &cb) {
		t.Fatalf("call on broken conn got %v, want *ConnBrokenError", err)
	}
	for id := range ids {
		if cb.ConnID != id {
			t.Fatalf("late call ConnID %d, want %d", cb.ConnID, id)
		}
	}
}

// TestMuxUnknownTagCounted feeds the demux an unsolicited reply and
// asserts it is dropped (the real reply still lands) and counted in
// mux_demux_errors_total.
func TestMuxUnknownTagCounted(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		c, err := raw.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var preamble [4]byte
		if _, err := io.ReadFull(c, preamble[:]); err != nil {
			return
		}
		var hdr [8]byte
		if _, err := io.ReadFull(c, hdr[:]); err != nil {
			return
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[4:]))
		if _, err := io.ReadFull(c, body); err != nil {
			return
		}
		tag := binary.BigEndian.Uint32(hdr[:4])
		// First a reply nobody asked for, then the real one.
		bogus, _ := encodeMuxReplyFramed(tag+12345, []byte("ghost"), nil)
		real, _ := encodeMuxReplyFramed(tag, body, nil)
		c.Write(bogus)
		c.Write(real)
	}()

	demux := metrics.Default().Counter(metrics.Labels("mux_demux_errors_total", "transport", "tcp-net"))
	before := demux.Value()

	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	conn, err := tr.Dial(context.Background(), raw.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, err := conn.Call(context.Background(), []byte("real"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "real" {
		t.Fatalf("echo = %q", got)
	}
	// The bogus reply precedes the real one on the stream, and the reader
	// counts it before it reads on, so the count moved before Call returned.
	if d := demux.Value() - before; d != 1 {
		t.Fatalf("mux_demux_errors_total advanced by %d, want 1", d)
	}
}

// TestMuxCallExpiry pins the per-call wait discipline on a shared conn:
// a call whose context deadline passes gets a CallExpiredError (timeout
// class, unreachable) while the connection survives for other calls.
func TestMuxCallExpiry(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	block := make(chan struct{})
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		if string(req) == "block" {
			<-block
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	defer close(block)
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = conn.Call(ctx, []byte("block"))
	var ce *CallExpiredError
	if !errors.As(err, &ce) {
		t.Fatalf("expired call got %v, want *CallExpiredError", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline expiry %v must be a timeout-class net.Error", err)
	}
	if !CodeOf(err).Unreachable() {
		t.Fatalf("expiry %v not classed unreachable", err)
	}
	// The connection is still healthy for other calls.
	got, err := conn.Call(context.Background(), []byte("after"))
	if err != nil {
		t.Fatalf("conn unusable after one call expired: %v", err)
	}
	if string(got) != "after" {
		t.Fatalf("echo = %q", got)
	}
}

// ---- UDP multiplexing.

func TestUDPMuxConcurrentCalls(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp-net")
	ln, err := tr.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, ok := conn.(*muxCore); !ok {
		t.Fatalf("udp-net dialed %T, want multiplexed conn", conn)
	}

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("dgram-%d", i)
			got, err := conn.Call(context.Background(), []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(got) != want {
				errs <- fmt.Errorf("call %d: got %q, want %q", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestUDPMuxMixedFramingOneListener: one listener receiving tagged and
// untagged datagrams serves the former and drops the latter — a
// datagram without the preamble, or too short to carry a tag, never
// reaches the handler and draws no reply.
func TestUDPMuxMixedFramingOneListener(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp-net")
	var handled atomic.Int32
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		handled.Add(1)
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	for _, tc := range []struct {
		name     string
		datagram []byte
	}{
		{"legacy-dialer", []byte("a bare payload, no preamble")},
		{"short-datagram", []byte("HMUX\x00\x00\x01")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := net.Dial("udp", ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := c.Write(tc.datagram); err != nil {
				t.Fatal(err)
			}
			if err := c.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 64)
			if n, err := c.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("dropped datagram drew a reply: %d bytes, err %v", n, err)
			}
			if got := handled.Load(); got != 0 {
				t.Fatalf("handler ran %d times for a datagram outside the protocol", got)
			}
		})
	}
	// Run last: its calls flush the listener's queue, so a handler call
	// for an earlier bad datagram could not still be outstanding.
	t.Run("mux-dialer", func(t *testing.T) {
		conn, err := tr.Dial(context.Background(), ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		for i := 0; i < 3; i++ {
			want := fmt.Sprintf("tagged-%d", i)
			got, err := conn.Call(context.Background(), []byte(want))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Fatalf("echo = %q, want %q", got, want)
			}
		}
		if got := handled.Load(); got != 3 {
			t.Fatalf("handler ran %d times, want 3 (the tagged calls only)", got)
		}
	})
}

// TestUDPOversizeReplyIsRemoteError: a reply that does not fit a
// datagram is answered at once with an error on the same tag.
func TestUDPOversizeReplyIsRemoteError(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp-net")
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		return make([]byte, maxDatagram), nil // tag + envelope push it past the limit
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = conn.Call(ctx, []byte("big"))
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "exceeds datagram limit") {
		t.Fatalf("oversize reply surfaced as %v, want RemoteError naming the datagram limit", err)
	}
}

// ---- Simulated transport mirror.

// TestSimMuxSemantics pins the sim mirror of the wire semantics:
// concurrent calls on one sim conn overlap, and each is charged the same
// simulated cost as if it had run alone. Overlap is proven by a
// rendezvous: each handler announces itself and then waits for the
// other, so a conn that serialized its calls would never finish.
func TestSimMuxSemantics(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp")
	arrived := make(chan struct{}, 2)
	bothIn := make(chan struct{})
	ln, err := tr.Listen("h:busy", func(ctx context.Context, req []byte) ([]byte, error) {
		arrived <- struct{}{}
		<-bothIn
		simtime.Charge(ctx, 5*time.Millisecond)
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := tr.Dial(context.Background(), "h:busy")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	meters := make([]*simtime.Meter, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := simtime.NewMeter()
			meters[i] = m
			if _, err := conn.Call(simtime.WithMeter(context.Background(), m), []byte("x")); err != nil {
				t.Error(err)
			}
		}(i)
	}
	<-arrived
	<-arrived // both handlers are in flight on the one conn at once
	close(bothIn)
	wg.Wait()
	want := simtime.RTTUDP + 5*time.Millisecond
	for i, m := range meters {
		if m.Elapsed() != want {
			t.Fatalf("call %d charged %v, want %v", i, m.Elapsed(), want)
		}
	}
}

// ---- Alloc benchmarks (bounds enforced by scripts/bench_alloc.sh).

func BenchmarkFrameMuxRequest(b *testing.B) {
	req := bytes.Repeat([]byte("q"), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := frameMuxRequest(uint32(i), req)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(out)
	}
}

func BenchmarkEncodeMuxReplyFramed(b *testing.B) {
	payload := bytes.Repeat([]byte("r"), 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := encodeMuxReplyFramed(uint32(i), payload, nil)
		if err != nil {
			b.Fatal(err)
		}
		bufpool.Put(out)
	}
}
