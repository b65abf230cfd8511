package hrpc

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

	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

var echoProc = Procedure{
	Name: "Echo", ID: 1,
	Args:  marshal.TStruct(marshal.TString),
	Ret:   marshal.TStruct(marshal.TString),
	Style: marshal.StyleGenerated,
}

var addProc = Procedure{
	Name: "Add", ID: 2,
	Args:  marshal.TStruct(marshal.TUint32, marshal.TUint32),
	Ret:   marshal.TStruct(marshal.TUint32),
	Style: marshal.StyleGenerated,
}

func newEchoServer(t *testing.T, net *transport.Network, suite Suite, host, addr string) (Binding, func()) {
	t.Helper()
	s := NewServer("echo@"+host, 7001, 1)
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		v, err := args.Field(0)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(v), nil
	})
	s.Register(addProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		a, _ := args.Items[0].AsU32()
		b, _ := args.Items[1].AsU32()
		return marshal.StructV(marshal.U32(a + b)), nil
	})
	ln, b, err := Serve(net, s, suite, host, addr)
	if err != nil {
		t.Fatal(err)
	}
	return b, func() { ln.Close() }
}

func allSuites() []struct {
	name  string
	suite Suite
} {
	return []struct {
		name  string
		suite Suite
	}{
		{"sunrpc", SuiteSunRPC},
		{"courier", SuiteCourier},
		{"raw", SuiteRaw},
		{"local", SuiteLocal},
	}
}

func TestCallAllSuites(t *testing.T) {
	net := transport.NewNetwork()
	for _, tc := range allSuites() {
		t.Run(tc.name, func(t *testing.T) {
			b, stop := newEchoServer(t, net, tc.suite, "fiji", "fiji:echo-"+tc.name)
			defer stop()
			c := NewClient(net)
			defer c.Close()

			ret, err := c.Call(context.Background(), b, echoProc,
				marshal.StructV(marshal.Str("hello heterogeneity")))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := ret.Items[0].AsString()
			if got != "hello heterogeneity" {
				t.Fatalf("echo = %q", got)
			}

			ret, err = c.Call(context.Background(), b, addProc,
				marshal.StructV(marshal.U32(40), marshal.U32(2)))
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := ret.Items[0].AsU32(); n != 42 {
				t.Fatalf("add = %d", n)
			}
		})
	}
}

// TestMixAndMatch exercises the defining HRPC property: the same server
// implementation served simultaneously over different component stacks,
// addressed by bindings that differ only in component names.
func TestMixAndMatch(t *testing.T) {
	net := transport.NewNetwork()
	s := NewServer("poly", 7002, 1)
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return args, nil
	})
	var bindings []Binding
	for i, suite := range []Suite{SuiteSunRPC, SuiteCourier, SuiteRaw} {
		ln, b, err := Serve(net, s, suite, "vax", fmt.Sprintf("vax:poly%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		bindings = append(bindings, b)
	}
	c := NewClient(net)
	defer c.Close()
	for _, b := range bindings {
		ret, err := c.Call(context.Background(), b, echoProc,
			marshal.StructV(marshal.Str("same server, "+b.Control)))
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if got, _ := ret.Items[0].AsString(); !strings.Contains(got, b.Control) {
			t.Fatalf("%v: echo = %q", b, got)
		}
	}
}

func TestRemoteFault(t *testing.T) {
	net := transport.NewNetwork()
	s := NewServer("faulty", 7003, 1)
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return marshal.Value{}, errors.New("name not found")
	})
	for _, tc := range allSuites() {
		t.Run(tc.name, func(t *testing.T) {
			ln, b, err := Serve(net, s, tc.suite, "h", "h:faulty-"+tc.name)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			c := NewClient(net)
			defer c.Close()
			_, err = c.Call(context.Background(), b, echoProc, marshal.StructV(marshal.Str("x")))
			var rf *RemoteFault
			if !errors.As(err, &rf) {
				t.Fatalf("want RemoteFault, got %v", err)
			}
			if !strings.Contains(rf.Msg, "name not found") {
				t.Fatalf("fault text lost: %q", rf.Msg)
			}
		})
	}
}

func TestWrongProgramVersionProc(t *testing.T) {
	net := transport.NewNetwork()
	b, stop := newEchoServer(t, net, SuiteSunRPC, "h", "h:echo")
	defer stop()
	c := NewClient(net)
	defer c.Close()

	wrongProg := b
	wrongProg.Program = 9999
	if _, err := c.Call(context.Background(), wrongProg, echoProc, marshal.StructV(marshal.Str("x"))); err == nil {
		t.Fatal("call to wrong program succeeded")
	}

	wrongVers := b
	wrongVers.Version = 42
	if _, err := c.Call(context.Background(), wrongVers, echoProc, marshal.StructV(marshal.Str("x"))); err == nil {
		t.Fatal("call to wrong version succeeded")
	}

	missing := Procedure{Name: "Missing", ID: 99, Args: marshal.TStruct(), Ret: marshal.TStruct()}
	if _, err := c.Call(context.Background(), b, missing, marshal.StructV()); err == nil {
		t.Fatal("call to missing procedure succeeded")
	}
}

func TestNullProcAlwaysAvailable(t *testing.T) {
	net := transport.NewNetwork()
	b, stop := newEchoServer(t, net, SuiteSunRPC, "h", "h:echo2")
	defer stop()
	c := NewClient(net)
	defer c.Close()
	if err := NullCall(context.Background(), c, b); err != nil {
		t.Fatalf("null call: %v", err)
	}
}

func TestInvalidBinding(t *testing.T) {
	c := NewClient(transport.NewNetwork())
	defer c.Close()
	_, err := c.Call(context.Background(), Binding{}, echoProc, marshal.StructV(marshal.Str("x")))
	if err == nil {
		t.Fatal("zero binding accepted")
	}
	b := Binding{Addr: "a", Transport: "udp", DataRep: "xdr", Control: "nope"}
	if _, err := c.Call(context.Background(), b, echoProc, marshal.StructV(marshal.Str("x"))); err == nil {
		t.Fatal("unknown control accepted")
	}
}

func TestCallCostBySuite(t *testing.T) {
	// The paper: "The remote call to the NSM takes 22-38 msec., depending
	// on the RPC system used." Check our suites land in that band and
	// order correctly (Sun/UDP < Raw/TCP ≤ Courier/TCP).
	net := transport.NewNetwork()
	costs := map[string]time.Duration{}
	for _, tc := range allSuites() {
		if tc.name == "local" {
			continue
		}
		b, stop := newEchoServer(t, net, tc.suite, "h", "h:cost-"+tc.name)
		c := NewClient(net)
		// Warm the connection so TCP setup is excluded (steady state).
		if err := NullCall(context.Background(), c, b); err != nil {
			t.Fatal(err)
		}
		cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
			_, err := c.Call(ctx, b, echoProc, marshal.StructV(marshal.Str("fiji.cs.washington.edu")))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		costs[tc.name] = cost
		c.Close()
		stop()
	}
	if !(costs["sunrpc"] < costs["raw"] && costs["raw"] <= costs["courier"]) {
		t.Fatalf("suite cost ordering wrong: %v", costs)
	}
	for name, cost := range costs {
		if cost < 18*time.Millisecond || cost > 45*time.Millisecond {
			t.Errorf("%s call cost %v outside the paper's remote-call band", name, cost)
		}
	}
}

func TestLocalSuiteNearZeroCost(t *testing.T) {
	net := transport.NewNetwork()
	b, stop := newEchoServer(t, net, SuiteLocal, "h", "h:local")
	defer stop()
	c := NewClient(net)
	defer c.Close()
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := c.Call(ctx, b, echoProc, marshal.StructV(marshal.Str("x")))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// "C(local call) is effectively zero in the time scale of the other
	// terms" — well under a simulated 10 ms.
	if cost > 10*time.Millisecond {
		t.Fatalf("local call cost %v is not effectively zero", cost)
	}
}

func TestConcurrentClients(t *testing.T) {
	net := transport.NewNetwork()
	b, stop := newEchoServer(t, net, SuiteSunRPC, "h", "h:conc")
	defer stop()
	c := NewClient(net)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				msg := fmt.Sprintf("m-%d-%d", i, j)
				ret, err := c.Call(context.Background(), b, echoProc, marshal.StructV(marshal.Str(msg)))
				if err != nil {
					t.Errorf("call: %v", err)
					return
				}
				if got, _ := ret.Items[0].AsString(); got != msg {
					t.Errorf("echo %q != %q", got, msg)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestClientRedialAfterServerRestart(t *testing.T) {
	net := transport.NewNetwork()
	b, stop := newEchoServer(t, net, SuiteSunRPC, "h", "h:restart")
	c := NewClient(net)
	defer c.Close()
	if err := NullCall(context.Background(), c, b); err != nil {
		t.Fatal(err)
	}
	stop() // server goes down
	if err := NullCall(context.Background(), c, b); err == nil {
		t.Fatal("call to dead server succeeded")
	}
	// Server comes back at the same address; cached connection is stale.
	b2, stop2 := newEchoServer(t, net, SuiteSunRPC, "h", "h:restart")
	defer stop2()
	if b2.Addr != b.Addr {
		t.Fatalf("restart changed address: %s != %s", b2.Addr, b.Addr)
	}
	if err := NullCall(context.Background(), c, b); err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
}

func TestDuplicateProcedurePanics(t *testing.T) {
	s := NewServer("dup", 1, 1)
	s.Register(echoProc, func(ctx context.Context, v marshal.Value) (marshal.Value, error) { return v, nil })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	s.Register(echoProc, func(ctx context.Context, v marshal.Value) (marshal.Value, error) { return v, nil })
}

// ---- Control protocol codecs.

func controls() []ControlProtocol {
	return []ControlProtocol{SunRPCControl{}, CourierControl{}, RawControl{}}
}

// wireHeader is what a control protocol's wire layout keeps of h: raw
// has no transaction ID, and only raw carries a budget.
func wireHeader(ctl ControlProtocol, h CallHeader) CallHeader {
	if ctl.Name() == "raw" {
		h.XID = 0
	} else {
		h.Budget, h.HasBudget = 0, false
	}
	return h
}

func TestControlCallRoundTrip(t *testing.T) {
	for _, ctl := range controls() {
		h := CallHeader{XID: 77, Program: 100017, Version: 1, Procedure: 3, Budget: 250 * time.Millisecond, HasBudget: true}
		frame, err := ctl.EncodeCall(h, []byte("args"))
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		got, body, err := ctl.DecodeCall(frame)
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		if want := wireHeader(ctl, h); got != want {
			t.Fatalf("%s: header %+v != %+v", ctl.Name(), got, want)
		}
		if string(body) != "args" {
			t.Fatalf("%s: body %q", ctl.Name(), body)
		}
	}
}

func TestControlReplyRoundTrip(t *testing.T) {
	for _, ctl := range controls() {
		// Success.
		frame, err := ctl.EncodeReply(ReplyHeader{XID: 9}, []byte("results"))
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		rh, body, err := ctl.DecodeReply(frame)
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		if rh.Code != ReplyOK || string(body) != "results" {
			t.Fatalf("%s: %+v %q", ctl.Name(), rh, body)
		}
		// Error.
		frame, err = ctl.EncodeReply(ReplyHeader{XID: 9, Code: ReplyFault, Err: "denied"}, nil)
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		rh, _, err = ctl.DecodeReply(frame)
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		if rh.Code != ReplyFault || rh.Err != "denied" {
			t.Fatalf("%s: reply %+v, want a fault with text %q", ctl.Name(), rh, "denied")
		}
		// A shed: the emulated suites render it as their own error reply.
		frame, err = ctl.EncodeReply(ReplyHeader{XID: 9, Code: ReplyOverloaded, Err: "load", RetryAfter: time.Second}, nil)
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		rh, _, err = ctl.DecodeReply(frame)
		if err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
		want := ReplyFault
		if ctl.Name() == "raw" {
			want = ReplyOverloaded
		}
		if rh.Code != want || !strings.Contains(rh.Err, "load") {
			t.Fatalf("%s: shed decodes as %+v, want code %d naming the reason", ctl.Name(), rh, want)
		}
	}
}

// TestAppendersMatchEncoders pins the pooled append path of every built-in
// control protocol to its allocating encoder, for both reply statuses and
// with recycled (dirty) destination buffers.
func TestAppendersMatchEncoders(t *testing.T) {
	h := CallHeader{XID: 0xdeadbeef, Program: 100017, Version: 1, Procedure: 4, Budget: time.Second, HasBudget: true}
	args := []byte("args bytes \x00\xff")
	replies := []ReplyHeader{
		{XID: 0xdeadbeef},
		{XID: 7, Code: ReplyFault, Err: "no such zone"},
		{XID: 7, Code: ReplyOverloaded, Err: "rate", RetryAfter: 40 * time.Millisecond},
		{XID: 7, Code: ReplyExpired},
	}
	for _, name := range []string{"raw", "sunrpc", "courier"} {
		ctl, err := LookupControl(name)
		if err != nil {
			t.Fatal(err)
		}
		ca, ok := ctl.(CallAppender)
		if !ok {
			t.Fatalf("%s: built-in protocol lacks CallAppender", name)
		}
		ra, ok := ctl.(ReplyAppender)
		if !ok {
			t.Fatalf("%s: built-in protocol lacks ReplyAppender", name)
		}
		want, err := ctl.EncodeCall(h, args)
		if err != nil {
			t.Fatal(err)
		}
		dirty := append(make([]byte, 0, 128), 0xaa, 0xbb)
		got, err := ca.AppendCall(dirty[:0], h, args)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendCall differs from EncodeCall", name)
		}
		for _, rh := range replies {
			want, err := ctl.EncodeReply(rh, []byte("results"))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ra.AppendReply(dirty[:0], rh, []byte("results"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: AppendReply (code %d) differs from EncodeReply", name, rh.Code)
			}
		}
	}
}

func TestControlHeaderProperty(t *testing.T) {
	for _, ctl := range controls() {
		ctl := ctl
		f := func(xid, prog, vers, proc, budgetMS uint32, hasBudget bool, payload []byte) bool {
			// Courier narrows version/procedure to 16 bits on the wire.
			if ctl.Name() == "courier" {
				vers &= 0xffff
				proc &= 0xffff
				xid &= 0xffff
			}
			h := CallHeader{XID: xid, Program: prog, Version: vers, Procedure: proc,
				Budget: time.Duration(budgetMS) * time.Millisecond, HasBudget: hasBudget}
			if !hasBudget {
				h.Budget = 0
			}
			frame, err := ctl.EncodeCall(h, payload)
			if err != nil {
				return false
			}
			got, body, err := ctl.DecodeCall(frame)
			if err != nil || got != wireHeader(ctl, h) {
				return false
			}
			if len(body) != len(payload) {
				return false
			}
			for i := range body {
				if body[i] != payload[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1987))}); err != nil {
			t.Fatalf("%s: %v", ctl.Name(), err)
		}
	}
}

func TestControlDecodeGarbage(t *testing.T) {
	for _, ctl := range controls() {
		for _, junk := range [][]byte{nil, {1}, {1, 2, 3, 4, 5}, make([]byte, 64)} {
			// Must not panic; errors are fine (an all-zero 64-byte frame
			// may parse as a legitimate header under some protocols).
			_, _, _ = ctl.DecodeCall(junk)
			_, _, _ = ctl.DecodeReply(junk)
		}
	}
}

func TestControlRegistry(t *testing.T) {
	for _, name := range []string{"sunrpc", "courier", "raw"} {
		c, err := LookupControl(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Fatalf("LookupControl(%q).Name() = %q", name, c.Name())
		}
	}
	if _, err := LookupControl("xns"); err == nil {
		t.Fatal("unknown control resolved")
	}
	// At least the three built-ins (tests may register more).
	if got := ControlNames(); len(got) < 3 {
		t.Fatalf("ControlNames() = %v", got)
	}
}

// ---- Portmapper.

func TestPortmapper(t *testing.T) {
	net := transport.NewNetwork()
	pm := NewPortmapper("fiji")
	ln, pmB, err := ServePortmap(net, pm)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if pmB != PortmapBinding("fiji") {
		t.Fatalf("portmap binding %v != well-known %v", pmB, PortmapBinding("fiji"))
	}

	c := NewClient(net)
	defer c.Close()

	// Unregistered program.
	if _, err := GetPortCall(context.Background(), c, pmB, 300, 1); err == nil {
		t.Fatal("lookup of unregistered program succeeded")
	}

	// Register remotely, then look up.
	if err := SetCall(context.Background(), c, pmB, 300, 1, "udp", "fiji:3000"); err != nil {
		t.Fatal(err)
	}
	addr, err := GetPortCall(context.Background(), c, pmB, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "fiji:3000" {
		t.Fatalf("GetPort = %q", addr)
	}

	// Unset locally, confirm gone.
	if !pm.Unset(300, 1) {
		t.Fatal("Unset reported missing entry")
	}
	if _, err := GetPortCall(context.Background(), c, pmB, 300, 1); err == nil {
		t.Fatal("lookup after unset succeeded")
	}
}

func TestBindingString(t *testing.T) {
	b := SuiteSunRPC.Bind("fiji", "fiji:9", 300, 1)
	s := b.String()
	for _, want := range []string{"udp", "sunrpc", "xdr", "fiji:9", "300"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Binding.String() = %q missing %q", s, want)
		}
	}
}

func TestSuiteBindFields(t *testing.T) {
	b := SuiteCourier.Bind("xerox", "xerox:5", 2, 3)
	if b.Transport != "tcp" || b.DataRep != "courier" || b.Control != "courier" {
		t.Fatalf("SuiteCourier.Bind = %+v", b)
	}
	if b.Program != 2 || b.Version != 3 || b.Host != "xerox" || b.Addr != "xerox:5" {
		t.Fatalf("SuiteCourier.Bind = %+v", b)
	}
}
