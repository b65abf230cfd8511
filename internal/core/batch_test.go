package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/world"
)

func batchQueries() []core.NameQuery {
	return []core.NameQuery{
		{Name: world.DesiredServiceName(), QueryClass: qclass.HRPCBinding},
		{Name: names.Must("ghost", "x"), QueryClass: qclass.HRPCBinding}, // failing slot
		{Name: world.CourierServiceName(), QueryClass: qclass.HRPCBinding},
	}
}

func TestLocalFindNSMBatch(t *testing.T) {
	w := newWorld(t, world.Config{})
	res, err := w.HNS.FindNSMBatch(context.Background(), batchQueries())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Err != nil || res[0].Binding.Host != world.HostNSM {
		t.Fatalf("slot 0 = %+v", res[0])
	}
	if res[1].Err == nil {
		t.Fatal("ghost context resolved")
	}
	// Partial failure does not poison the batch.
	if res[2].Err != nil || res[2].Binding.Addr != "june:"+world.PortBindingCH {
		t.Fatalf("slot 2 = %+v", res[2])
	}
}

func TestRemoteFindNSMBatch(t *testing.T) {
	w := newWorld(t, world.Config{})
	ln, hb, err := core.ServeHNS(w.Net, w.HNS, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	remote := core.NewRemoteHNS(w.RPC, hb)

	ctx := context.Background()
	res, err := remote.FindNSMBatch(ctx, batchQueries())
	if err != nil {
		t.Fatal(err)
	}
	local, err := w.HNS.FindNSMBatch(ctx, batchQueries())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if (res[i].Err == nil) != (local[i].Err == nil) {
			t.Fatalf("slot %d: remote err %v, local err %v", i, res[i].Err, local[i].Err)
		}
		if res[i].Err == nil && res[i].Binding != local[i].Binding {
			t.Fatalf("slot %d: remote %v != local %v", i, res[i].Binding, local[i].Binding)
		}
	}
	// The failing slot is a remote fault naming the cause, not a dead call.
	var rf *hrpc.RemoteFault
	if !errors.As(res[1].Err, &rf) {
		t.Fatalf("slot 1 err = %v, want RemoteFault", res[1].Err)
	}
}

// TestFindAll covers the generic helper: batch-capable finders batch,
// plain finders loop.
func TestFindAll(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	res, err := core.FindAll(ctx, w.HNS, batchQueries())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil || res[1].Err == nil || res[2].Err != nil {
		t.Fatalf("FindAll results: %+v", res)
	}

	res2, err := core.FindAll(ctx, plainFinder{w.HNS}, batchQueries())
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if (res[i].Err == nil) != (res2[i].Err == nil) {
			t.Fatalf("slot %d differs between batch and loop paths", i)
		}
		if res[i].Err == nil && res[i].Binding != res2[i].Binding {
			t.Fatalf("slot %d bindings differ: %v vs %v", i, res[i].Binding, res2[i].Binding)
		}
	}
}

// plainFinder hides the batch method, forcing FindAll's loop path.
type plainFinder struct{ f core.Finder }

func (p plainFinder) FindNSM(ctx context.Context, n names.Name, qc string) (hrpc.Binding, error) {
	return p.f.FindNSM(ctx, n, qc)
}

// TestRemoteBatchCheaperThanSingles pins the amortization on the core
// interface in simulated time (warm caches, so frame cost dominates).
func TestRemoteBatchCheaperThanSingles(t *testing.T) {
	w := newWorld(t, world.Config{})
	ln, hb, err := core.ServeHNS(w.Net, w.HNS, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	remote := core.NewRemoteHNS(w.RPC, hb)

	qs := make([]core.NameQuery, 8)
	for i := range qs {
		qs[i] = core.NameQuery{Name: world.DesiredServiceName(), QueryClass: qclass.HRPCBinding}
	}
	// Warm every cache first so both arms measure pure call cost.
	if _, err := remote.FindNSMBatch(context.Background(), qs[:1]); err != nil {
		t.Fatal(err)
	}
	batchCost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := remote.FindNSMBatch(ctx, qs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	singleCost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		for _, q := range qs {
			if _, err := remote.FindNSM(ctx, q.Name, q.QueryClass); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batchCost >= singleCost {
		t.Fatalf("batch of %d cost %v, singles cost %v; batching should amortize", len(qs), batchCost, singleCost)
	}
}

// framesTotal sums every transport_frames_total series: the wire
// transports count request and reply frames in the process registry.
func framesTotal() int64 {
	var total int64
	for _, c := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "transport_frames_total") {
			total += c.Value
		}
	}
	return total
}

// TestRemoteBatchFrameAmortization pins the amortization in wire frames:
// a warm batch of 16 is one request/reply exchange (2 frames) where 16
// singles are one exchange per name (32 frames).
func TestRemoteBatchFrameAmortization(t *testing.T) {
	w := newWorld(t, world.Config{})
	ln, hb, err := core.ServeHNS(w.Net, w.HNS, "june", "june:hns")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	remote := core.NewRemoteHNS(w.RPC, hb)

	qs := make([]core.NameQuery, 16)
	for i := range qs {
		qs[i] = core.NameQuery{Name: world.DesiredServiceName(), QueryClass: qclass.HRPCBinding}
		if i%2 == 1 {
			qs[i].Name = world.CourierServiceName()
		}
	}
	ctx := context.Background()
	// Warm the connection and the server's caches, so the measured
	// frames are the client's exchanges with the HNS and nothing else.
	if _, err := remote.FindNSMBatch(ctx, qs); err != nil {
		t.Fatal(err)
	}

	before := framesTotal()
	res, err := remote.FindNSMBatch(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
	}
	if got := framesTotal() - before; got != 2 {
		t.Fatalf("warm batch of %d moved %d frames, want 2 (one exchange)", len(qs), got)
	}

	before = framesTotal()
	for _, q := range qs {
		if _, err := remote.FindNSM(ctx, q.Name, q.QueryClass); err != nil {
			t.Fatal(err)
		}
	}
	if got := framesTotal() - before; got != int64(2*len(qs)) {
		t.Fatalf("%d singles moved %d frames, want %d", len(qs), got, 2*len(qs))
	}
}

// metaFrames sums the frames on the simulated TCP transport — the one the
// meta-BIND's HRPC interface is served over; the linked HostAddress NSMs
// reach their BIND over UDP.
func metaFrames() int64 {
	var total int64
	for _, c := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(c.Name, `transport_frames_total{transport="tcp"`) {
			total += c.Value
		}
	}
	return total
}

// TestChainMetaExchangeCounts pins, in wire frames, what Config.ChainMeta
// buys and what leaving it off keeps: a FindNSM missing on mappings 1-3
// makes one meta exchange with it and three without — the paper's path,
// which every table is computed on, so the default must stay off.
func TestChainMetaExchangeCounts(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(0, 0))
	w := newWorld(t, world.Config{Clock: clk})
	ctx := context.Background()
	// A system type whose NSM registration lives a tenth as long as its
	// context's.
	if err := w.HNS.RegisterContext(ctx, "hrpcbinding-brief", "brief-ns"); err != nil {
		t.Fatal(err)
	}
	if err := w.HNS.RegisterNSM(ctx, core.NSMInfo{
		Name: "binding-brief-1", NameService: "brief-ns", QueryClass: qclass.HRPCBinding,
		Host: world.HostNSM, HostContext: world.CtxHostB, Port: world.PortBindingBind,
		Suite: hrpc.SuiteSunRPC, TTL: 60,
	}); err != nil {
		t.Fatal(err)
	}
	brief := names.Must("hrpcbinding-brief", "x")

	for _, tc := range []struct {
		chain                        bool
		allCold, cold, warm, expired int64 // meta exchanges
	}{
		{chain: true, allCold: 2, cold: 1, warm: 0, expired: 1},
		{chain: false, allCold: 5, cold: 3, warm: 0, expired: 2},
	} {
		h := w.NewHNS(core.Config{ChainMeta: tc.chain})
		find := func(step string, name names.Name, qc string, want int64) {
			t.Helper()
			before := metaFrames()
			if _, err := h.FindNSM(ctx, name, qc); err != nil {
				t.Fatalf("chain=%v %s: %v", tc.chain, step, err)
			}
			if got := metaFrames() - before; got != 2*want {
				t.Fatalf("chain=%v %s: %d frames to the meta-BIND, want %d (%d exchanges)",
					tc.chain, step, got, 2*want, want)
			}
		}
		// Mappings 1-5 all miss; 4 chains to 5.
		find("nothing cached", names.Must(world.CtxMailB, world.MailUserBind), qclass.MailRoute, tc.allCold)
		// The benchmark's cold op: a new context, the NSM host's cached.
		find("new context", brief, qclass.HRPCBinding, tc.cold)
		find("repeat", brief, qclass.HRPCBinding, tc.warm)
		// Each set kept its own TTL: past the NSM registration's 60 s the
		// context (600 s) still hits, and mapping 2's miss chains to 3.
		clk.Advance(100 * time.Second)
		find("NSM registration expired", brief, qclass.HRPCBinding, tc.expired)
	}
}

// TestChainMetaSameErrors: where the chain breaks, FindNSM fails exactly
// as it does one lookup at a time.
func TestChainMetaSameErrors(t *testing.T) {
	w := newWorld(t, world.Config{})
	ctx := context.Background()
	// A context whose name service has a query-class record naming an NSM
	// that was never registered.
	if err := w.HNS.RegisterContext(ctx, "hrpcbinding-orphan", "orphan-ns"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.MetaHRPCClient().Update(ctx, world.MetaZone, bind.UpdateAdd,
		bind.HNSMeta(qclass.HRPCBinding+".orphan-ns.qc."+world.MetaZone, "nsm=nobody", 600)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name names.Name
		qc   string
		want error
	}{
		{names.Must("no-such-context", "x"), qclass.HRPCBinding, core.ErrNoSuchContext},
		{world.DesiredServiceName(), "no-such-class", core.ErrNoSuchNSM},
		{names.Must("hrpcbinding-orphan", "x"), qclass.HRPCBinding, core.ErrNoSuchNSM},
	} {
		_, chained := w.NewHNS(core.Config{ChainMeta: true}).FindNSM(ctx, tc.name, tc.qc)
		_, discrete := w.NewHNS(core.Config{}).FindNSM(ctx, tc.name, tc.qc)
		if !errors.Is(chained, tc.want) || chained.Error() != discrete.Error() {
			t.Errorf("%v %s: chained %v, discrete %v, want %v both ways", tc.name, tc.qc, chained, discrete, tc.want)
		}
	}
}
