package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hns/internal/metrics"
	"hns/internal/simtime"
)

func newTestNetwork() *Network { return NewNetwork() }

func echoHandler(ctx context.Context, req []byte) ([]byte, error) {
	return req, nil
}

// chargeHandler charges a known server-side cost before echoing.
func chargeHandler(d time.Duration) Handler {
	return func(ctx context.Context, req []byte) ([]byte, error) {
		simtime.Charge(ctx, d)
		return req, nil
	}
}

func TestSimTransportsRoundTrip(t *testing.T) {
	n := newTestNetwork()
	for _, name := range []string{"inproc", "udp", "tcp", "udp-local", "tcp-local"} {
		t.Run(name, func(t *testing.T) {
			tr, err := n.Transport(name)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := tr.Listen("fiji:7", echoHandler)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			conn, err := tr.Dial(context.Background(), "fiji:7")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			got, err := conn.Call(context.Background(), []byte("hello"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Fatalf("echo = %q", got)
			}
		})
	}
}

func TestSimCostCharging(t *testing.T) {
	n := newTestNetwork()
	serverWork := 8 * time.Millisecond

	cases := []struct {
		transport string
		rtt       time.Duration
		setup     time.Duration
	}{
		{"inproc", simtime.RTTInProc, 0},
		{"udp", simtime.RTTUDP, 0},
		{"tcp", simtime.RTTTCP, simtime.TCPConnSetup},
		{"udp-local", simtime.RTTUDPLocal, 0},
		{"tcp-local", simtime.RTTTCPLocal, simtime.TCPConnSetup},
	}
	for _, tc := range cases {
		t.Run(tc.transport, func(t *testing.T) {
			tr, _ := n.Transport(tc.transport)
			ln, err := tr.Listen("host:"+tc.transport, chargeHandler(serverWork))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
				conn, err := tr.Dial(ctx, "host:"+tc.transport)
				if err != nil {
					return err
				}
				defer conn.Close()
				_, err = conn.Call(ctx, []byte("x"))
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			want := tc.rtt + tc.setup + serverWork
			if cost != want {
				t.Fatalf("cost = %v, want %v (rtt %v + setup %v + server %v)",
					cost, want, tc.rtt, tc.setup, serverWork)
			}
		})
	}
}

func TestSimNestedCostPropagation(t *testing.T) {
	// client -> A -> B: the client's meter must see both round trips plus
	// B's processing, exactly like synchronous wall-clock time.
	n := newTestNetwork()
	tr, _ := n.Transport("udp")

	serverB := 5 * time.Millisecond
	lnB, err := tr.Listen("b:1", chargeHandler(serverB))
	if err != nil {
		t.Fatal(err)
	}
	defer lnB.Close()

	lnA, err := tr.Listen("a:1", func(ctx context.Context, req []byte) ([]byte, error) {
		conn, err := tr.Dial(ctx, "b:1")
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		return conn.Call(ctx, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lnA.Close()

	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		conn, err := tr.Dial(ctx, "a:1")
		if err != nil {
			return err
		}
		defer conn.Close()
		_, err = conn.Call(ctx, []byte("x"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2*simtime.RTTUDP + serverB
	if cost != want {
		t.Fatalf("nested cost = %v, want %v", cost, want)
	}
}

func TestSimDialRefused(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp")
	if _, err := tr.Dial(context.Background(), "nowhere:9"); !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused, got %v", err)
	}
}

func TestSimCallAfterListenerClose(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp")
	ln, _ := tr.Listen("h:1", echoHandler)
	conn, err := tr.Dial(context.Background(), "h:1")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	if _, err := conn.Call(context.Background(), []byte("x")); !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused after listener close, got %v", err)
	}
}

func TestSimDoubleListen(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp")
	ln, err := tr.Listen("h:1", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := tr.Listen("h:1", echoHandler); err == nil {
		t.Fatal("double listen succeeded")
	}
	// A different transport may reuse the same address string.
	tr2, _ := n.Transport("tcp")
	ln2, err := tr2.Listen("h:1", echoHandler)
	if err != nil {
		t.Fatalf("cross-transport address reuse failed: %v", err)
	}
	ln2.Close()
}

func TestSimListenerCloseThenRebind(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp")
	ln, _ := tr.Listen("h:1", echoHandler)
	ln.Close()
	ln2, err := tr.Listen("h:1", echoHandler)
	if err != nil {
		t.Fatalf("rebind after close failed: %v", err)
	}
	defer ln2.Close()
	// Closing the first listener again must not tear down the second.
	ln.Close()
	conn, err := tr.Dial(context.Background(), "h:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Call(context.Background(), []byte("x")); err != nil {
		t.Fatalf("call after stale close: %v", err)
	}
}

func TestSimRemoteError(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("inproc")
	ln, _ := tr.Listen("h:1", func(ctx context.Context, req []byte) ([]byte, error) {
		return nil, errors.New("no such name")
	})
	defer ln.Close()
	conn, _ := tr.Dial(context.Background(), "h:1")
	_, err := conn.Call(context.Background(), []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want *RemoteError, got %v", err)
	}
	if !strings.Contains(re.Error(), "no such name") {
		t.Fatalf("remote error text lost: %q", re.Error())
	}
}

func TestSimClosedConn(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("inproc")
	ln, _ := tr.Listen("h:1", echoHandler)
	defer ln.Close()
	conn, _ := tr.Dial(context.Background(), "h:1")
	conn.Close()
	if _, err := conn.Call(context.Background(), []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestSimCancelledContext(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("inproc")
	ln, _ := tr.Listen("h:1", echoHandler)
	defer ln.Close()
	conn, _ := tr.Dial(context.Background(), "h:1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := conn.Call(ctx, []byte("x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSimConcurrentCalls(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("udp")
	ln, _ := tr.Listen("h:1", echoHandler)
	defer ln.Close()

	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := tr.Dial(context.Background(), "h:1")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			msg := []byte(fmt.Sprintf("msg-%d", i))
			for j := 0; j < 50; j++ {
				got, err := conn.Call(context.Background(), msg)
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if !bytes.Equal(got, msg) {
					t.Errorf("echo mismatch: %q != %q", got, msg)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestUnknownTransport(t *testing.T) {
	n := newTestNetwork()
	if _, err := n.Transport("carrier-pigeon"); err == nil {
		t.Fatal("unknown transport resolved")
	}
}

func TestTransportsList(t *testing.T) {
	n := newTestNetwork()
	names := n.Transports()
	want := []string{"inproc", "tcp", "tcp-local", "tcp-net", "udp", "udp-local", "udp-net"}
	if len(names) != len(want) {
		t.Fatalf("Transports() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Transports() = %v, want %v", names, want)
		}
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	n := newTestNetwork()
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	n.Register(newSimTransport(n, "udp", 0, 0))
}

// ---- Real-socket transports.

// wireBytes reads a transport's transport_bytes_total{dir} counter.
func wireBytes(transportName, dir string) int64 {
	return metrics.Default().Counter(metrics.Labels("transport_bytes_total",
		"transport", transportName, "dir", dir)).Value()
}

// TestNetWireIsCostFree pins the real-socket wire: a request body is the
// payload verbatim, a reply body is one status byte plus the payload —
// no cost field — so one call with an N-byte request and an M-byte
// reply moves the byte counters by exactly N and M+1. The cost model
// does not reach the socket at either end: the handler's ctx carries no
// meter, and a meter the caller installed still reads zero afterwards.
// (This is the tier-1 twin of the benchmark's bytes_per_op gate.)
func TestNetWireIsCostFree(t *testing.T) {
	for _, name := range []string{"tcp-net", "udp-net"} {
		t.Run(name, func(t *testing.T) {
			const reqLen, replyLen = 37, 211
			n := newTestNetwork()
			tr, _ := n.Transport(name)
			metered := make(chan bool, 1)
			ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
				metered <- simtime.From(ctx) != nil
				simtime.Charge(ctx, 3*time.Millisecond) // what every real handler does
				return bytes.Repeat([]byte{'r'}, replyLen), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			meter := simtime.NewMeter()
			ctx := simtime.WithMeter(context.Background(), meter)
			conn, err := tr.Dial(ctx, ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			tx0, rx0 := wireBytes(name, "tx"), wireBytes(name, "rx")
			got, err := conn.Call(ctx, bytes.Repeat([]byte{'q'}, reqLen))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != replyLen {
				t.Fatalf("reply of %d bytes, want %d", len(got), replyLen)
			}
			if tx := wireBytes(name, "tx") - tx0; tx != reqLen {
				t.Errorf("tx bytes moved by %d, want exactly the %d-byte request", tx, reqLen)
			}
			if rx := wireBytes(name, "rx") - rx0; rx != replyLen+1 {
				t.Errorf("rx bytes moved by %d, want the %d-byte reply plus one status byte", rx, replyLen)
			}
			if <-metered {
				t.Error("handler behind a real socket was handed a simtime meter")
			}
			if meter.Elapsed() != 0 || meter.Events() != 0 {
				t.Errorf("caller's meter charged %v in %d events over a real socket, want nothing",
					meter.Elapsed(), meter.Events())
			}
		})
	}
}

func TestTCPNetRoundTrip(t *testing.T) {
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
	// Two calls on the one connection.
	for _, msg := range []string{"ping", "pong"} {
		got, err := conn.Call(context.Background(), []byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != msg {
			t.Fatalf("echo = %q, want %q", got, msg)
		}
	}
}

func TestTCPNetRemoteError(t *testing.T) {
	n := newTestNetwork()
	tr, _ := n.Transport("tcp-net")
	ln, err := tr.Listen("127.0.0.1:0", func(ctx context.Context, req []byte) ([]byte, error) {
		return nil, errors.New("kaboom")
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
	_, err = conn.Call(context.Background(), []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("want RemoteError(kaboom), got %v", err)
	}
}

func TestUDPNetRoundTrip(t *testing.T) {
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
	got, err := conn.Call(context.Background(), []byte("datagram"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "datagram" {
		t.Fatalf("echo = %q", got)
	}
}

func TestUDPNetOversizedRequest(t *testing.T) {
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
	if _, err := conn.Call(context.Background(), make([]byte, maxDatagram+1)); err == nil {
		t.Fatal("oversized datagram accepted")
	}
}

// ---- Frame codec.

func TestReplyCodecRoundTrip(t *testing.T) {
	body := encodeReply([]byte("payload"), nil)
	payload, err := decodeReply(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "payload" {
		t.Fatalf("got %q", payload)
	}

	body = encodeReply(nil, errors.New("oops"))
	_, err = decodeReply(body)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "oops" {
		t.Fatalf("got %v", err)
	}
}

// TestReplyCodecShort: a body with no status byte is a short frame, not
// an empty payload.
func TestReplyCodecShort(t *testing.T) {
	if _, err := decodeReply(nil); err == nil {
		t.Fatal("short reply accepted")
	}
}

func TestReplyCodecBadStatus(t *testing.T) {
	body := encodeReply([]byte("x"), nil)
	body[0] = 99
	if _, err := decodeReply(body); err == nil {
		t.Fatal("bad status accepted")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(payload []byte, isErr bool) bool {
		var herr error
		if isErr {
			herr = errors.New(string(payload))
		}
		body := encodeReply(payload, herr)
		var buf bytes.Buffer
		if err := writeFrame(&buf, body); err != nil {
			return false
		}
		back, err := readFrame(&buf)
		if err != nil {
			return false
		}
		got, derr := decodeReply(back)
		if isErr {
			var re *RemoteError
			return errors.As(derr, &re) && re.Msg == string(payload)
		}
		return derr == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame written")
	}
	// A hostile length prefix must be rejected before allocation.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := readFrame(&buf); err == nil {
		t.Fatal("hostile frame length accepted")
	}
}
