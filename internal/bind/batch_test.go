package bind

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
)

func TestLookupBatchRoundTrip(t *testing.T) {
	env := newTestEnv(t)
	c := NewHRPCClient(env.client, env.hrpcB)
	qs := []Question{
		{"fiji.cs.washington.edu", TypeA},
		{"ghost.cs.washington.edu", TypeA}, // NXDOMAIN slot
		{"june.cs.washington.edu", TypeA},
		{"parc.xerox.com", TypeA}, // REFUSED slot
	}
	res, err := c.LookupBatch(context.Background(), qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(qs) {
		t.Fatalf("got %d results, want %d", len(res), len(qs))
	}
	if res[0].Err != nil || len(res[0].RRs) != 1 || string(res[0].RRs[0].Data) != "udp!fiji" {
		t.Fatalf("slot 0 = %+v", res[0])
	}
	var nf *NotFoundError
	if !errors.As(res[1].Err, &nf) || nf.RCode != RCodeNXDomain {
		t.Fatalf("slot 1 err = %v, want NXDOMAIN", res[1].Err)
	}
	// Partial failure does not poison the batch: slot 2 still answers.
	if res[2].Err != nil || len(res[2].RRs) != 1 || string(res[2].RRs[0].Data) != "udp!june" {
		t.Fatalf("slot 2 = %+v", res[2])
	}
	if !errors.As(res[3].Err, &nf) || nf.RCode != RCodeRefused {
		t.Fatalf("slot 3 err = %v, want REFUSED", res[3].Err)
	}
}

// TestLookupBatchCheaperThanSingles pins the amortization in simulated
// time: one batch of N costs less than N sequential singles (one
// request marshal and one network exchange versus N of each).
func TestLookupBatchCheaperThanSingles(t *testing.T) {
	env := newTestEnv(t)
	c := NewHRPCClient(env.client, env.hrpcB)
	qs := make([]Question, 8)
	for i := range qs {
		qs[i] = Question{"fiji.cs.washington.edu", TypeA}
	}
	batchCost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := c.LookupBatch(ctx, qs)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	singleCost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		for range qs {
			if _, err := c.Lookup(ctx, "fiji.cs.washington.edu", TypeA); err != nil {
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

func TestLookupBatchLimits(t *testing.T) {
	env := newTestEnv(t)
	c := NewHRPCClient(env.client, env.hrpcB)
	if res, err := c.LookupBatch(context.Background(), nil); err != nil || res != nil {
		t.Fatalf("empty batch: %v, %v", res, err)
	}
	big := make([]Question, MaxBatchNames+1)
	for i := range big {
		big[i] = Question{"fiji.cs.washington.edu", TypeA}
	}
	if _, err := c.LookupBatch(context.Background(), big); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestBatcherCoalescesBySize(t *testing.T) {
	env := newTestEnv(t)
	reg := metrics.NewRegistry()
	ba := NewBatcher(NewHRPCClient(env.client, env.hrpcB), BatcherConfig{
		MaxBatch: 4,
		MaxWait:  time.Minute, // only the size trigger may fire
		Metrics:  reg,
	})
	var wg sync.WaitGroup
	errs := make([]error, 4)
	costs := make([]time.Duration, 4)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := simtime.WithMeter(context.Background(), simtime.NewMeter())
			_, errs[i] = ba.Lookup(ctx, "fiji.cs.washington.edu", TypeA)
			costs[i] = simtime.From(ctx).Elapsed()
		}()
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if costs[i] == 0 {
			t.Fatalf("waiter %d charged nothing; batch cost must replay to every waiter", i)
		}
	}
	if got := reg.Counter(metrics.Labels("bind_batcher_flushes_total", "cause", "size")).Value(); got != 1 {
		t.Fatalf("size flushes = %d, want 1", got)
	}
	if got := reg.Counter("bind_batcher_joined_total").Value(); got != 3 {
		t.Fatalf("joined = %d, want 3", got)
	}
}

func TestBatcherFlushesOnTimer(t *testing.T) {
	env := newTestEnv(t)
	reg := metrics.NewRegistry()
	ba := NewBatcher(NewHRPCClient(env.client, env.hrpcB), BatcherConfig{
		MaxBatch: 16,
		MaxWait:  2 * time.Millisecond,
		Metrics:  reg,
	})
	rrs, err := ba.Lookup(context.Background(), "june.cs.washington.edu", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) != 1 || string(rrs[0].Data) != "udp!june" {
		t.Fatalf("Lookup via batcher = %v", rrs)
	}
	if got := reg.Counter(metrics.Labels("bind_batcher_flushes_total", "cause", "time")).Value(); got != 1 {
		t.Fatalf("time flushes = %d, want 1", got)
	}
}

func TestBatcherLookupNotFound(t *testing.T) {
	env := newTestEnv(t)
	ba := NewBatcher(NewHRPCClient(env.client, env.hrpcB), BatcherConfig{MaxBatch: 1})
	_, err := ba.Lookup(context.Background(), "ghost.cs.washington.edu", TypeA)
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.RCode != RCodeNXDomain {
		t.Fatalf("want NXDOMAIN through batcher, got %v", err)
	}
}

// FuzzBatchDecode hammers the batch reply decoder with arbitrary bytes:
// whatever a peer sends, decode must return an error or a result — never
// panic, never index out of range.
func FuzzBatchDecode(f *testing.F) {
	rep, err := marshal.Lookup("xdr")
	if err != nil {
		f.Fatal(err)
	}
	// Seed with a well-formed two-slot reply and some near-misses.
	good := marshal.StructV(marshal.ListV(
		marshal.StructV(marshal.U32(0), marshal.ListV(rrToValue(A("a.example", "x", 60)))),
		marshal.StructV(marshal.U32(3), marshal.ListV()),
	))
	if enc, err := rep.Append(nil, good, procQueryBatch.Ret); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	qs := []Question{{"a.example", TypeA}, {"b.example", TypeA}}
	f.Fuzz(func(t *testing.T, data []byte) {
		ret, err := marshal.Unmarshal(rep, data, procQueryBatch.Ret)
		if err != nil {
			return // rejected at the wire layer: fine
		}
		// Shape-valid bytes may still disagree with the question count or
		// carry mangled records; decode must fail soft.
		res, _, err := decodeBatchResults(ret, qs)
		if err == nil && len(res) != len(qs) {
			t.Fatalf("decode returned %d results for %d questions without error", len(res), len(qs))
		}
	})
}
