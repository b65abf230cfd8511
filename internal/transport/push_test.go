package transport

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hns/internal/simtime"
)

// pushEcho is a handler that captures the connection's Pusher and, on
// request "push:<msg>", pushes <msg> back over the push channel before
// replying "ok".
func pushEcho(t *testing.T, pushers chan Pusher) Handler {
	return func(ctx context.Context, req []byte) ([]byte, error) {
		if p, ok := PusherFrom(ctx); ok {
			select {
			case pushers <- p:
			default:
			}
		}
		if len(req) > 5 && string(req[:5]) == "push:" {
			p, ok := PusherFrom(ctx)
			if !ok {
				return nil, errors.New("no pusher on this conn")
			}
			if err := p.Push(req[5:]); err != nil {
				return nil, err
			}
		}
		return []byte("ok"), nil
	}
}

// TestPushDelivery exercises the tag-0 push channel end to end on both
// the real TCP transport and the simulated one: a handler pushes a frame
// mid-call and the client's push handler receives it.
func TestPushDelivery(t *testing.T) {
	for _, name := range []string{"tcp-net", "tcp"} {
		t.Run(name, func(t *testing.T) {
			net := NewNetwork()
			tr, err := net.Transport(name)
			if err != nil {
				t.Fatal(err)
			}
			pushers := make(chan Pusher, 1)
			ln, err := tr.Listen(listenAddrFor(name), pushEcho(t, pushers))
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()

			ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
			conn, err := tr.Dial(ctx, ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			pr, ok := conn.(PushReceiver)
			if !ok {
				t.Fatalf("%s mux conn does not implement PushReceiver", name)
			}
			got := make(chan []byte, 4)
			pr.SetPushHandler(func(body []byte, err error) {
				if err == nil {
					got <- body
				}
			})

			resp, err := conn.Call(ctx, []byte("push:hello"))
			if err != nil {
				t.Fatal(err)
			}
			if string(resp) != "ok" {
				t.Fatalf("reply = %q, want ok", resp)
			}
			select {
			case body := <-got:
				if string(body) != "hello" {
					t.Fatalf("push body = %q, want hello", body)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("push frame never delivered")
			}
		})
	}
}

// TestPushConnDeath asserts the push handler receives exactly one death
// notice when the connection dies, and that the server-side Pusher's
// Done channel closes.
func TestPushConnDeath(t *testing.T) {
	net := NewNetwork()
	tr, err := net.Transport("tcp-net")
	if err != nil {
		t.Fatal(err)
	}
	pushers := make(chan Pusher, 1)
	ln, err := tr.Listen("127.0.0.1:0", pushEcho(t, pushers))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
	conn, err := tr.Dial(ctx, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	deaths := 0
	died := make(chan struct{}, 2)
	conn.(PushReceiver).SetPushHandler(func(body []byte, err error) {
		if err != nil {
			mu.Lock()
			deaths++
			mu.Unlock()
			died <- struct{}{}
		}
	})
	if _, err := conn.Call(ctx, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	p := <-pushers

	conn.Close()
	select {
	case <-died:
	case <-time.After(2 * time.Second):
		t.Fatal("push handler never saw the conn death")
	}
	select {
	case <-p.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("server pusher Done never closed")
	}
	// Done has closed, and Push checks it before writing.
	if err := p.Push([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Push on a dead conn = %v, want ErrClosed", err)
	}
	mu.Lock()
	if deaths != 1 {
		t.Fatalf("death notices = %d, want 1", deaths)
	}
	mu.Unlock()
}

// TestPushSimConnDeath mirrors the death notice on the simulated
// transport: Close delivers exactly one nil-body error callback and
// closes the pusher's Done.
func TestPushSimConnDeath(t *testing.T) {
	net := NewNetwork()
	tr, err := net.Transport("tcp")
	if err != nil {
		t.Fatal(err)
	}
	pushers := make(chan Pusher, 1)
	ln, err := tr.Listen("sim-push-death", pushEcho(t, pushers))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
	conn, err := tr.Dial(ctx, ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	deaths := 0
	conn.(PushReceiver).SetPushHandler(func(body []byte, err error) {
		if err != nil {
			deaths++
		}
	})
	if _, err := conn.Call(ctx, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	p := <-pushers
	conn.Close()
	conn.Close() // idempotent: still one death notice
	select {
	case <-p.Done():
	default:
		t.Fatal("sim pusher Done not closed after conn Close")
	}
	if err := p.Push([]byte("late")); err == nil {
		t.Fatal("Push on a closed sim conn reported success")
	}
	if deaths != 1 {
		t.Fatalf("death notices = %d, want 1", deaths)
	}
}

// listenAddrFor picks a listen address suitable for the transport.
func listenAddrFor(name string) string {
	if name == "tcp-net" {
		return "127.0.0.1:0"
	}
	return "sim-push-" + name
}
