package hrpc

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"hns/internal/marshal"
	"hns/internal/transport"
)

var blobProc = Procedure{
	Name: "Blob", ID: 3,
	Args:  marshal.TStruct(marshal.TBytes),
	Ret:   marshal.TStruct(marshal.TUint32),
	Style: marshal.StyleNone,
}

// TestOversizedFrameOverRealTCP verifies the transport's frame bound is
// enforced cleanly on the real-socket path: a payload beyond the limit
// errors at the sender, and the connection remains usable for normal
// traffic afterwards.
func TestOversizedFrameOverRealTCP(t *testing.T) {
	net := transport.NewNetwork()
	s := NewServer("blob", 7300, 1)
	s.Register(blobProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		b, _ := args.Items[0].AsBytes()
		return marshal.StructV(marshal.U32(uint32(len(b)))), nil
	})
	ln, b, err := Serve(net, s, SuiteRawNet, "localhost", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	c := NewClient(net)
	defer c.Close()
	ctx := context.Background()

	// 2 MiB exceeds the 1 MiB frame bound.
	_, err = c.Call(ctx, b, blobProc, marshal.StructV(marshal.BytesV(make([]byte, 2<<20))))
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("unexpected error: %v", err)
	}

	// A sane payload still goes through on a fresh exchange.
	ret, err := c.Call(ctx, b, blobProc, marshal.StructV(marshal.BytesV(make([]byte, 64<<10))))
	if err != nil {
		t.Fatalf("normal call after oversize: %v", err)
	}
	if n, _ := ret.Items[0].AsU32(); n != 64<<10 {
		t.Fatalf("blob length = %d", n)
	}
}

// TestBindingWithMismatchedComponents exercises mix-and-match gone wrong:
// a client whose binding names the wrong data representation cannot talk
// to the server, but fails with an error instead of hanging or panicking.
func TestBindingWithMismatchedComponents(t *testing.T) {
	net := transport.NewNetwork()
	s := NewServer("echo", 7301, 1)
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return args, nil
	})
	ln, good, err := Serve(net, s, SuiteSunRPC, "h", "h:mm")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewClient(net)
	defer c.Close()

	bad := good
	for _, rep := range []string{"courier", "packed"} { // the Sun RPC suite speaks xdr
		bad.DataRep = rep
		if _, err := c.Call(context.Background(), bad, echoProc,
			marshal.StructV(marshal.Str("x"))); err == nil {
			t.Fatalf("mismatched data representation %s succeeded", rep)
		}
	}
	bad = good
	bad.Control = "raw" // server speaks sunrpc
	if _, err := c.Call(context.Background(), bad, echoProc,
		marshal.StructV(marshal.Str("x"))); err == nil {
		t.Fatal("mismatched control protocol succeeded")
	}
	// The correct binding still works afterwards.
	if _, err := c.Call(context.Background(), good, echoProc,
		marshal.StructV(marshal.Str("x"))); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCallsOverRealTCP(t *testing.T) {
	net := transport.NewNetwork()
	s := NewServer("echo", 7302, 1)
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return args, nil
	})
	ln, b, err := Serve(net, s, SuiteRawNet, "localhost", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewClient(net)
	defer c.Close()

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			for j := 0; j < 25; j++ {
				msg := marshal.Str(strings.Repeat("x", i+1))
				ret, err := c.Call(context.Background(), b, echoProc, marshal.StructV(msg))
				if err != nil {
					done <- err
					return
				}
				if got, _ := ret.Items[0].AsString(); len(got) != i+1 {
					done <- fmt.Errorf("echo length %d, want %d", len(got), i+1)
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
