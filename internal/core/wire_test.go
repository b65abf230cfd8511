package core_test

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/gateway"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/transport"
	"hns/internal/world"
)

// The HNS program on the wire: what a FindNSM moves, what it refuses to
// move, and the shape it no longer accepts.

// nsmBinding is the HNS program's binding, {addr, transport, dataRep,
// control, program, version}, and bindingRet the FindNSM result type,
// {binding, keep}.
var (
	nsmBinding = marshal.TStruct(marshal.TString, marshal.TString, marshal.TString, marshal.TString,
		marshal.TUint32, marshal.TUint32)
	bindingRet = marshal.TStruct(nsmBinding, marshal.TUint32)
)

// nsmBindingValue is b as the HNS program sends it: no host name.
func nsmBindingValue(b hrpc.Binding) marshal.Value {
	return marshal.StructV(marshal.Str(b.Addr), marshal.Str(b.Transport), marshal.Str(b.DataRep),
		marshal.Str(b.Control), marshal.U32(b.Program), marshal.U32(b.Version))
}

// registeredQueries is every context × query class world registers; each
// one resolves.
func registeredQueries() []core.NameQuery {
	var qs []core.NameQuery
	for _, cx := range []string{world.CtxBind, world.CtxHostB, world.CtxMailB, world.CtxCH, world.CtxHostCH, world.CtxMailCH} {
		for _, qc := range []string{qclass.HostAddress, qclass.HRPCBinding, qclass.MailRoute} {
			qs = append(qs, core.NameQuery{Name: names.Must(cx, "x"), QueryClass: qc})
		}
	}
	return qs
}

func tcpWireBytes(dir string) int64 {
	return metrics.Default().Counter(metrics.Labels("transport_bytes_total",
		"transport", "tcp-net", "dir", dir)).Value()
}

// packedLen is the size of v in the raw suite's data representation.
func packedLen(t *testing.T, v marshal.Value, ty marshal.Type) int64 {
	t.Helper()
	rep, err := marshal.Lookup(hrpc.SuiteRawNet.DataRep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.Append(nil, v, ty)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(b))
}

// remoteOverTCP serves w's HNS on a loopback socket and returns a
// RemoteHNS calling it.
func remoteOverTCP(t *testing.T, w *world.World) *core.RemoteHNS {
	t.Helper()
	ln, hb, err := hrpc.Serve(w.Net, core.NewHNSServer(w.HNS, "hns@june"), hrpc.SuiteRawNet, "june", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	rpc := hrpc.NewClient(w.Net)
	rpc.Metrics = metrics.NewRegistry()
	t.Cleanup(func() { rpc.Close() })
	return core.NewRemoteHNS(rpc, hb)
}

// TestHNSWireBytes is the tier-1 twin of the benchmark's bytes_per_op
// gate for the HNS program: over real TCP, a warm FindNSM moves the raw
// envelope (6 bytes) plus the context and the query class, each behind a
// one-byte length, and the individual name not at all. The reply is 2
// (the transport's status byte and the raw reply code) plus the packed
// six-field binding, which carries no host name, and the one-byte keep (0:
// world's HNS has no meta subscription, so this connection cannot watch):
// 2 + 41 + 1 = 44 bytes on world's binding NSM.
func TestHNSWireBytes(t *testing.T) {
	w := newWorld(t, world.Config{})
	remote := remoteOverTCP(t, w)
	ctx := context.Background()
	name := world.DesiredServiceName()
	// Warm the connection and the HNS's meta-cache outside the measurement.
	b, err := remote.FindNSM(ctx, name, qclass.HRPCBinding)
	if err != nil {
		t.Fatal(err)
	}
	tx0, rx0 := tcpWireBytes("tx"), tcpWireBytes("rx")
	if _, err := remote.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	wantTx := int64(6 + 1 + len(name.Context) + 1 + len(qclass.HRPCBinding))
	if tx := tcpWireBytes("tx") - tx0; tx != wantTx {
		t.Errorf("FindNSM sent %d bytes, want %d (6 + context + query class)", tx, wantTx)
	}
	if b.Host != "" || b.Addr != "june:"+world.PortBindingBind {
		t.Errorf("FindNSM binding host %q addr %q, want no host and the binding NSM's address", b.Host, b.Addr)
	}
	wantRx := 2 + packedLen(t, marshal.StructV(nsmBindingValue(b), marshal.U32(0)), bindingRet)
	rx := tcpWireBytes("rx") - rx0
	if rx != wantRx {
		t.Errorf("FindNSM received %d bytes, want %d (2 + packed binding + keep)", rx, wantRx)
	}
	if rx != 44 {
		t.Errorf("FindNSM received %d bytes, want 44", rx)
	}
}

// TestHNSBatchWireBytes is TestHNSWireBytes for a warm 16-name
// FindNSMBatch: one exchange, out the envelope, the count and each
// (context, query class); back 2, the count and each slot's empty error
// text (one byte), six-field binding and one-byte keep (0, as in
// TestHNSWireBytes).
func TestHNSBatchWireBytes(t *testing.T) {
	w := newWorld(t, world.Config{})
	remote := remoteOverTCP(t, w)
	ctx := context.Background()
	qs := registeredQueries()[:16]
	if _, err := remote.FindNSMBatch(ctx, qs); err != nil {
		t.Fatal(err)
	}
	tx0, rx0 := tcpWireBytes("tx"), tcpWireBytes("rx")
	res, err := remote.FindNSMBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	count := int64(len(binary.AppendUvarint(nil, uint64(len(qs)))))
	wantTx, wantRx := 6+count, 2+count
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
		if r.Binding.Host != "" {
			t.Errorf("slot %d carries NSM host %q", i, r.Binding.Host)
		}
		wantTx += int64(1 + len(qs[i].Name.Context) + 1 + len(qs[i].QueryClass))
		wantRx += 1 + packedLen(t, nsmBindingValue(r.Binding), nsmBinding) + 1
	}
	if tx := tcpWireBytes("tx") - tx0; tx != wantTx {
		t.Errorf("FindNSMBatch sent %d bytes, want %d (6 + count + Σ(context + query class))", tx, wantTx)
	}
	if rx := tcpWireBytes("rx") - rx0; rx != wantRx {
		t.Errorf("FindNSMBatch received %d bytes, want %d (2 + count + Σ(1 + packed binding + 1))", rx, wantRx)
	}
}

// malformedNames are names RemoteHNS refuses before sending.
var malformedNames = []names.Name{
	{Context: world.CtxBind, Individual: ""},
	{Context: "has space", Individual: "x"},
}

// TestRemoteFindNSMRefusesMalformedNames: a malformed name fails at the
// caller with names.ErrBadHNSName and moves no frame; in a batch it fills
// its own slot and every other slot resolves.
func TestRemoteFindNSMRefusesMalformedNames(t *testing.T) {
	w := newWorld(t, world.Config{})
	ln, hb, err := core.ServeHNS(w.Net, w.HNS, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	remote := core.NewRemoteHNS(w.RPC, hb)
	ctx := context.Background()
	if _, err := remote.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}

	for _, n := range malformedNames {
		before := framesTotal()
		_, err := remote.FindNSM(ctx, n, qclass.HRPCBinding)
		if !errors.Is(err, names.ErrBadHNSName) {
			t.Errorf("FindNSM(%+v) = %v, want ErrBadHNSName", n, err)
		}
		if got := framesTotal() - before; got != 0 {
			t.Errorf("FindNSM(%+v) moved %d frames, want 0", n, got)
		}
	}

	qs := []core.NameQuery{
		{Name: world.DesiredServiceName(), QueryClass: qclass.HRPCBinding},
		{Name: malformedNames[0], QueryClass: qclass.HRPCBinding},
		{Name: world.CourierServiceName(), QueryClass: qclass.HRPCBinding},
		{Name: malformedNames[1], QueryClass: qclass.HRPCBinding},
	}
	res, err := remote.FindNSMBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if i%2 == 1 {
			if !errors.Is(r.Err, names.ErrBadHNSName) {
				t.Errorf("slot %d err = %v, want ErrBadHNSName", i, r.Err)
			}
			continue
		}
		if local, err := w.HNS.FindNSM(ctx, qs[i].Name, qs[i].QueryClass); err != nil || r.Err != nil || r.Binding != local {
			t.Errorf("slot %d = %+v, want %v (%v)", i, r, local, err)
		}
	}
	// A batch of nothing but malformed names sends nothing.
	before := framesTotal()
	if res, err := remote.FindNSMBatch(ctx, qs[1:2]); err != nil || !errors.Is(res[0].Err, names.ErrBadHNSName) {
		t.Fatalf("all-malformed batch = %+v, %v", res, err)
	}
	if got := framesTotal() - before; got != 0 {
		t.Errorf("all-malformed batch moved %d frames, want 0", got)
	}
}

// countingFinder counts the calls that reach the finder behind a server.
type countingFinder struct {
	calls atomic.Int64
	f     core.ContextFinder
}

func (c *countingFinder) FindContextNSM(ctx context.Context, hnsContext, qc string) (hrpc.Binding, error) {
	c.calls.Add(1)
	return c.f.FindContextNSM(ctx, hnsContext, qc)
}

// TestOldShapeFindNSMRefused: a call still carrying the individual name —
// three strings where the program takes two — leaves trailing bytes in
// the strict packed decoder. The server answers with a fault and the
// finder never runs; the individual is never read as a query class.
func TestOldShapeFindNSMRefused(t *testing.T) {
	w := newWorld(t, world.Config{})
	cf := &countingFinder{f: w.HNS}
	ln, hb, err := hrpc.Serve(w.Net, core.NewFinderServer(cf, "hns@june"), hrpc.SuiteRaw, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctx := context.Background()
	n := world.DesiredServiceName()
	three := marshal.StructV(marshal.Str(n.Context), marshal.Str(n.Individual), marshal.Str(qclass.HRPCBinding))
	for _, p := range []struct {
		proc hrpc.Procedure
		args marshal.Value
	}{
		{hrpc.Procedure{Name: "FindNSM", ID: core.ProcFindNSMID,
			Args: marshal.TStruct(marshal.TString, marshal.TString, marshal.TString), Ret: bindingRet}, three},
		{hrpc.Procedure{Name: "FindNSMBatch", ID: core.ProcFindNSMBatchID,
			Args: marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TString, marshal.TString, marshal.TString))),
			Ret:  marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TString, bindingRet.Fields[0])))},
			marshal.StructV(marshal.ListV(three))},
	} {
		_, err := w.RPC.Call(ctx, hb, p.proc, p.args)
		var rf *hrpc.RemoteFault
		if !errors.As(err, &rf) || !strings.Contains(rf.Msg, "trailing bytes") {
			t.Errorf("old-shape %s = %v, want a RemoteFault for trailing bytes", p.proc.Name, err)
		}
	}
	if got := cf.calls.Load(); got != 0 {
		t.Fatalf("finder ran %d times for old-shape calls, want 0", got)
	}
}

// TestOldShapeReplyRefused: a server still answering with the seven-field
// binding, host name first, leaves trailing bytes in the caller's strict
// decoder. RemoteHNS fails both procedures and returns no binding, so an
// old reply's host name is never read as an address.
func TestOldShapeReplyRefused(t *testing.T) {
	seven := marshal.TStruct(marshal.TString, marshal.TString, marshal.TString, marshal.TString,
		marshal.TString, marshal.TUint32, marshal.TUint32)
	old := hrpc.Binding{Host: world.HostNSM, Addr: "june:" + world.PortBindingBind, Transport: "udp",
		DataRep: "xdr", Control: "sunrpc", Program: qclass.ProgHRPCBinding, Version: qclass.NSMVersion}
	srv := hrpc.NewServer("hns-old", core.HNSProgram, core.HNSVersion)
	srv.Metrics = metrics.NewRegistry()
	srv.Register(hrpc.Procedure{Name: "FindNSM", ID: core.ProcFindNSMID,
		Args: marshal.TStruct(marshal.TString, marshal.TString), Ret: marshal.TStruct(seven)},
		func(context.Context, marshal.Value) (marshal.Value, error) {
			return marshal.StructV(qclass.BindingValue(old)), nil
		})
	srv.Register(hrpc.Procedure{Name: "FindNSMBatch", ID: core.ProcFindNSMBatchID,
		Args: marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TString, marshal.TString))),
		Ret:  marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TString, seven)))},
		func(_ context.Context, args marshal.Value) (marshal.Value, error) {
			slots := make([]marshal.Value, args.Items[0].Len())
			for i := range slots {
				slots[i] = marshal.StructV(marshal.Str(""), qclass.BindingValue(old))
			}
			return marshal.StructV(marshal.ListV(slots...)), nil
		})
	n := transport.NewNetwork()
	ln, hb, err := hrpc.Serve(n, srv, hrpc.SuiteRaw, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rpc := hrpc.NewClient(n)
	rpc.Metrics = metrics.NewRegistry()
	defer rpc.Close()
	remote := core.NewRemoteHNS(rpc, hb)

	ctx := context.Background()
	b, err := remote.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
	if err == nil || !strings.Contains(err.Error(), "trailing bytes") || b != (hrpc.Binding{}) {
		t.Errorf("FindNSM against an old-shape reply = %v, %v; want a trailing-bytes error and no binding", b, err)
	}
	res, err := remote.FindNSMBatch(ctx, []core.NameQuery{
		{Name: world.DesiredServiceName(), QueryClass: qclass.HRPCBinding},
		{Name: world.CourierServiceName(), QueryClass: qclass.HRPCBinding},
	})
	if err == nil || res != nil {
		t.Errorf("FindNSMBatch against an old-shape reply = %+v, %v; want an error and no results", res, err)
	}
}

// TestFindersAgree: for every context × query class world registers, the
// linked HNS, a RemoteHNS and a RemoteHNS through the gateway return
// identical bindings, singly and batched, none carrying a host name.
func TestFindersAgree(t *testing.T) {
	w := newWorld(t, world.Config{})
	ln, hb, err := core.ServeHNS(w.Net, w.HNS, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gw := gateway.New(w.RPC, hb, gateway.Config{})
	gw.Server().Metrics = metrics.NewRegistry()
	gln, gb, err := hrpc.Serve(w.Net, gw.Server(), hrpc.SuiteRaw, "gw", "gw:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer gln.Close()
	remotes := []struct {
		label string
		r     *core.RemoteHNS
	}{{"remote", core.NewRemoteHNS(w.RPC, hb)}, {"gateway", core.NewRemoteHNS(w.RPC, gb)}}

	ctx := context.Background()
	qs := registeredQueries()
	want := make([]hrpc.Binding, len(qs))
	for i, q := range qs {
		if want[i], err = w.HNS.FindNSM(ctx, q.Name, q.QueryClass); err != nil {
			t.Fatalf("linked %v/%s: %v", q.Name, q.QueryClass, err)
		}
		if want[i].Host != "" || want[i].Validate() != nil {
			t.Errorf("linked %v/%s = %+v, want a complete binding with no host", q.Name, q.QueryClass, want[i])
		}
	}
	for _, f := range remotes {
		for i, q := range qs {
			if got, err := f.r.FindNSM(ctx, q.Name, q.QueryClass); err != nil || got != want[i] {
				t.Errorf("%s %v/%s = %v, %v; linked %v", f.label, q.Name, q.QueryClass, got, err, want[i])
			}
		}
		res, err := f.r.FindNSMBatch(ctx, qs)
		if err != nil {
			t.Fatalf("%s batch: %v", f.label, err)
		}
		for i, r := range res {
			if r.Err != nil || r.Binding != want[i] {
				t.Errorf("%s batch slot %d = %+v; linked %v", f.label, i, r, want[i])
			}
		}
	}
}

// BenchmarkRemoteFindNSMWarmAllocs is one warm FindNSM through a RemoteHNS
// over the sim transport, client and server both, instrumentation off.
// scripts/bench_alloc.sh gates its allocs/op.
func BenchmarkRemoteFindNSMWarmAllocs(b *testing.B) {
	w, err := world.New(world.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	h := w.NewHNS(core.Config{CacheMode: bind.CacheDemarshalled, Metrics: metrics.Discard})
	srv := core.NewHNSServer(h, "hns@june")
	srv.Metrics = metrics.Discard
	ln, hb, err := hrpc.Serve(w.Net, srv, hrpc.SuiteRaw, "june", "june:hns-bench")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	rpc := hrpc.NewClient(w.Net)
	rpc.Metrics = metrics.Discard
	defer rpc.Close()
	remote := core.NewRemoteHNS(rpc, hb)
	ctx := context.Background()
	name := world.DesiredServiceName()
	if _, err := remote.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := remote.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteFindNSMMemoHitAllocs is one warm FindNSM a RemoteHNS
// answers from its memo: over the sim transport, against an HNS
// subscribed to the meta BIND's push plane, instrumentation off. Only the
// memo key allocates. scripts/bench_alloc.sh gates its allocs/op.
func BenchmarkRemoteFindNSMMemoHitAllocs(b *testing.B) {
	w, err := world.New(world.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	hb := serveSubscribedHNS(b, w, "june:hns-bench")
	rpc := hrpc.NewClient(w.Net)
	rpc.Metrics = metrics.Discard
	defer rpc.Close()
	remote := core.NewRemoteHNS(rpc, hb)
	ctx := context.Background()
	name := world.DesiredServiceName()
	for range 2 { // asked unwatched, then watched and kept
		if _, err := remote.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := remote.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOldVersionRefused: a caller of the HNS program at version 1, which
// sent the individual name and read a seven-field binding, is refused by
// version: FindNSM and FindNSMBatch fail with the server's
// version-mismatch fault, counted as hrpc.remote_fault, and no finder runs.
func TestOldVersionRefused(t *testing.T) {
	w := newWorld(t, world.Config{})
	cf := &countingFinder{f: w.HNS}
	ln, hb, err := hrpc.Serve(w.Net, core.NewFinderServer(cf, "hns@june"), hrpc.SuiteRaw, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	rpc := hrpc.NewClient(w.Net)
	rpc.Metrics = metrics.NewRegistry()
	defer rpc.Close()
	old := hb
	old.Version = 1
	remote := core.NewRemoteHNS(rpc, old)

	ctx := context.Background()
	_, findErr := remote.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
	_, batchErr := remote.FindNSMBatch(ctx, []core.NameQuery{{Name: world.DesiredServiceName(), QueryClass: qclass.HRPCBinding}})
	for name, err := range map[string]error{"FindNSM": findErr, "FindNSMBatch": batchErr} {
		var rf *hrpc.RemoteFault
		if !errors.As(err, &rf) || !strings.Contains(rf.Msg, "version mismatch") || transport.CodeOf(err) != transport.CodeRemoteFault {
			t.Errorf("version-1 %s = %v, want the server's version-mismatch fault", name, err)
		}
	}
	if n := rpc.Metrics.Counter(metrics.Labels("hrpc_client_errors_total", "code", "hrpc.remote_fault")).Value(); n != 2 {
		t.Errorf("hrpc_client_errors_total{code=hrpc.remote_fault} = %d, want 2", n)
	}
	if got := cf.calls.Load(); got != 0 {
		t.Errorf("finder ran %d times for version-1 calls, want 0", got)
	}
}
