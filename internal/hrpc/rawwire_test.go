package hrpc

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/admission"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// Raw HRPC over real sockets: the envelope the benchmark's daemons
// exchange, and the coded replies that ride it.

// wireProgram is the meta-BIND's program number, a 3-byte uvarint like
// every benchmark program's.
const wireProgram = 300000

var wireProc = Procedure{
	Name: "Blob", ID: 8,
	Args:  marshal.TStruct(marshal.TString),
	Ret:   marshal.TStruct(marshal.TString),
	Style: marshal.StyleNone,
}

// wireEnv is one real-socket raw server whose handler counts its runs,
// dialed by a pooled client.
type wireEnv struct {
	c    *Client
	b    Binding
	runs atomic.Int64
}

func newWireEnv(t *testing.T, suite Suite, admit *admission.Controller) *wireEnv {
	t.Helper()
	n := transport.NewNetwork()
	e := &wireEnv{}
	s := NewServer("wire", wireProgram, 1)
	s.Metrics = metrics.NewRegistry()
	if admit != nil {
		s.EnableAdmission(admit)
	}
	s.Register(wireProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		e.runs.Add(1)
		return marshal.StructV(marshal.Str(strings.Repeat("r", 211))), nil
	})
	ln, b, err := Serve(n, s, suite, "wire", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	e.b = b
	e.c = NewClient(n)
	e.c.Metrics = metrics.NewRegistry()
	t.Cleanup(func() { e.c.Close() })
	return e
}

func (e *wireEnv) call(ctx context.Context) error {
	_, err := e.c.Call(ctx, e.b, wireProc, marshal.StructV(marshal.Str("q")))
	return err
}

// rawLen is the size of v in the raw suite's data representation.
func rawLen(t *testing.T, v marshal.Value, ty marshal.Type) int64 {
	t.Helper()
	rep, err := marshal.Lookup(SuiteRawNet.DataRep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.Append(nil, v, ty)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b))
}

func tcpWireBytes(dir string) int64 {
	return metrics.Default().Counter(metrics.Labels("transport_bytes_total",
		"transport", "tcp-net", "dir", dir)).Value()
}

// TestRawEnvelopeBytes is the tier-1 twin of the benchmark's
// bytes_per_op gate: a raw call with N bytes of arguments and M bytes of
// results moves exactly N+6 bytes out (flags, 3-byte program, version,
// proc) and M+2 back (the transport's status byte and the reply code),
// and a budget adds only its own uvarint.
func TestRawEnvelopeBytes(t *testing.T) {
	e := newWireEnv(t, SuiteRawNet, nil)
	argLen := rawLen(t, marshal.StructV(marshal.Str("q")), wireProc.Args)
	resLen := rawLen(t, marshal.StructV(marshal.Str(strings.Repeat("r", 211))), wireProc.Ret)
	ctx := context.Background()
	if err := e.call(ctx); err != nil { // dial outside the measurement
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		ctx   context.Context
		extra int64
	}{
		{"no budget", ctx, 0},
		{"600ms budget", WithBudget(ctx, 600*time.Millisecond), 2}, // uvarint(600)
	} {
		tx0, rx0 := tcpWireBytes("tx"), tcpWireBytes("rx")
		if err := e.call(tc.ctx); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tx := tcpWireBytes("tx") - tx0; tx != argLen+6+tc.extra {
			t.Errorf("%s: tx moved %d bytes, want %d args + 6 + %d", tc.name, tx, argLen, tc.extra)
		}
		if rx := tcpWireBytes("rx") - rx0; rx != resLen+2 {
			t.Errorf("%s: rx moved %d bytes, want %d results + 2", tc.name, rx, resLen)
		}
	}
}

// TestRawCodedRepliesOverTCP: over a real socket an admission shed
// arrives as *BackpressureError with its reason and retry-after intact,
// and an exhausted budget as ErrBudgetExpired without the handler
// running.
func TestRawCodedRepliesOverTCP(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	admit := admission.New(admission.Config{
		Rate: 1, RetryAfter: 50 * time.Millisecond,
		Clock: clk, Metrics: metrics.NewRegistry(), Server: "wire",
	})
	e := newWireEnv(t, SuiteRawNet, admit)
	ctx := context.Background()
	if err := e.call(ctx); err != nil {
		t.Fatalf("first call: %v", err)
	}
	err := e.call(ctx)
	var bp *BackpressureError
	if !errors.As(err, &bp) || bp.Reason != "rate" || bp.RetryAfter != 50*time.Millisecond {
		t.Fatalf("second call: %v, want backpressure (rate, 50ms)", err)
	}

	e = newWireEnv(t, SuiteRawNet, nil)
	err = e.call(WithBudget(ctx, 0))
	if !errors.Is(err, ErrBudgetExpired) {
		t.Fatalf("expired call: %v, want ErrBudgetExpired", err)
	}
	if n := e.runs.Load(); n != 0 {
		t.Fatalf("handler ran %d times for an expired call, want 0", n)
	}
}

// TestSunRPCShedIsRemoteFault: the emulated Sun RPC header has no code
// table, so an admission shed behind it is a well-formed error reply the
// client surfaces as *RemoteFault — not a malformed frame.
func TestSunRPCShedIsRemoteFault(t *testing.T) {
	admit := admission.New(admission.Config{
		Rate: 1, Clock: simtime.NewFakeClock(time.Unix(0, 0)),
		Metrics: metrics.NewRegistry(), Server: "wire",
	})
	e := newWireEnv(t, SuiteSunRPCNet, admit)
	ctx := context.Background()
	if err := e.call(ctx); err != nil {
		t.Fatalf("first call: %v", err)
	}
	err := e.call(ctx)
	var rf *RemoteFault
	if !errors.As(err, &rf) || !strings.Contains(rf.Msg, "overloaded") || errors.Is(err, ErrBadFrame) {
		t.Fatalf("second call: %v, want a RemoteFault reporting the overload", err)
	}
}
