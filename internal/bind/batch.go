package bind

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
)

// Batched resolution: one tagged frame carries up to MaxBatchNames
// questions and one frame carries their per-name answers, amortizing the
// per-call frame cost that dominates small lookups. Status is per name —
// an NXDOMAIN in slot 3 does not poison slots 0–2.

// MaxBatchNames bounds one batch call. The cap keeps a single frame
// within the transports' datagram budgets and bounds head-of-line
// blocking behind one giant batch.
const MaxBatchNames = 64

// Question is one (name, type) query in a batch.
type Question struct {
	Name string
	Type RRType
}

// BatchResult is the per-name outcome of a batch lookup: the records, or
// the error for that name alone (a *NotFoundError for authoritative
// negatives, like single-name Lookup).
type BatchResult struct {
	RRs []RR
	Err error
}

// procQueryBatch is the batch query procedure: a list of questions in, a
// list of (rcode, records) out, positionally matched. Read-only and
// deterministic given zone state, so — like procQuery — it is eligible
// for the server's marshalled-reply cache.
var procQueryBatch = hrpc.Procedure{
	Name: "BINDQueryBatch", ID: 5,
	Args:      marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TString, marshal.TUint32))),
	Ret:       marshal.TStruct(marshal.TList(marshal.TStruct(marshal.TUint32, marshal.TList(rrType)))),
	Style:     marshal.StyleNone,
	Cacheable: true,
}

// registerBatch installs the batch handler on an HRPC server wrapping s.
func (s *Server) registerBatch(hs *hrpc.Server) {
	batches := s.reg.Counter("bind_batch_queries_total")
	names := s.reg.Counter("bind_batch_names_total")
	hs.Register(procQueryBatch, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		qs := args.Items[0]
		if qs.Len() > MaxBatchNames {
			return marshal.Value{}, fmt.Errorf("bind: batch of %d exceeds limit %d", qs.Len(), MaxBatchNames)
		}
		results := make([]marshal.Value, 0, qs.Len())
		for _, it := range qs.Items {
			name, err := it.Items[0].AsString()
			if err != nil {
				return marshal.Value{}, err
			}
			qt, err := it.Items[1].AsU32()
			if err != nil {
				return marshal.Value{}, err
			}
			// Per-name status: a bad name yields its own rcode slot and
			// the rest of the batch proceeds.
			rcode, rrs := s.Query(ctx, name, RRType(qt))
			results = append(results, marshal.StructV(marshal.U32(uint32(rcode)), rrsToList(rrs)))
		}
		batches.Inc()
		names.Add(int64(qs.Len()))
		return marshal.StructV(marshal.ListV(results...)), nil
	})
}

// decodeBatchResults validates and unpacks a batch reply against the
// questions that produced it. It returns the per-name results plus the
// total record count (for demarshal pricing). Every malformation — wrong
// arity, wrong kinds, a result count that does not match the question
// count — is an error, never a panic: the reply may come from a peer
// running other software.
func decodeBatchResults(ret marshal.Value, qs []Question) ([]BatchResult, int, error) {
	if ret.Kind != marshal.KindStruct || ret.Len() != 1 {
		return nil, 0, fmt.Errorf("bind: batch reply is not a 1-field struct")
	}
	list := ret.Items[0]
	if list.Kind != marshal.KindList {
		return nil, 0, fmt.Errorf("bind: batch reply body is not a list")
	}
	if list.Len() != len(qs) {
		return nil, 0, fmt.Errorf("bind: batch reply has %d results for %d questions", list.Len(), len(qs))
	}
	out := make([]BatchResult, len(qs))
	records := 0
	for i, it := range list.Items {
		if it.Kind != marshal.KindStruct || it.Len() != 2 {
			return nil, 0, fmt.Errorf("bind: batch result %d is not an (rcode, records) pair", i)
		}
		rcode, err := it.Items[0].AsU32()
		if err != nil {
			return nil, 0, fmt.Errorf("bind: batch result %d: %v", i, err)
		}
		if it.Items[1].Kind != marshal.KindList {
			return nil, 0, fmt.Errorf("bind: batch result %d records are not a list", i)
		}
		rrs, err := listToRRs(it.Items[1])
		if err != nil {
			return nil, 0, fmt.Errorf("bind: batch result %d: %v", i, err)
		}
		if RCode(rcode) != RCodeOK {
			out[i] = BatchResult{Err: &NotFoundError{Name: qs[i].Name, Type: qs[i].Type, RCode: RCode(rcode)}}
			continue
		}
		out[i] = BatchResult{RRs: rrs}
		records += len(rrs)
	}
	return out, records, nil
}

// LookupBatch resolves up to MaxBatchNames questions in one call. The
// returned slice matches qs positionally; each slot carries its own
// records or error (partial failure does not poison the batch), and the
// call-level error is reserved for transport/availability failures.
// The whole batch is one frame out, one frame in.
func (c *HRPCClient) LookupBatch(ctx context.Context, qs []Question) ([]BatchResult, error) {
	if len(qs) == 0 {
		return nil, nil
	}
	if len(qs) > MaxBatchNames {
		return nil, fmt.Errorf("bind: batch of %d exceeds limit %d", len(qs), MaxBatchNames)
	}
	model := c.c.Network().Model()
	// One generated-stub request marshal for the whole batch — this is
	// the amortization the batch exists for.
	simtime.Charge(ctx, model.GenMarshalRequest)
	items := make([]marshal.Value, 0, len(qs))
	for _, q := range qs {
		items = append(items, marshal.StructV(marshal.Str(q.Name), marshal.U32(uint32(q.Type))))
	}
	ret, err := c.c.Call(ctx, c.b, procQueryBatch, marshal.StructV(marshal.ListV(items...)))
	if err != nil {
		return nil, err
	}
	res, records, err := decodeBatchResults(ret, qs)
	if err != nil {
		return nil, err
	}
	marshal.ChargeRecords(ctx, model, marshal.StyleGenerated, records)
	c.obs.batches.Inc()
	c.obs.batchNames.Add(int64(len(qs)))
	for _, r := range res {
		c.obs.count(r.Err)
	}
	return res, nil
}

// ---- Client-side auto-batching.

// Batcher coalesces concurrent single-name Lookups into batch calls: a
// lookup joins the open window, and the window flushes when it holds
// MaxBatch questions or has been open MaxWait. Each waiter is charged
// the batch call's full simulated cost (coalescing reduces frames and
// backend work, not the latency any one caller observes) and gets its
// own slot's answer. A Batcher is a Lookuper, so it drops in front of a
// Resolver exactly where the plain client would go.
type Batcher struct {
	backend  *HRPCClient
	maxBatch int
	maxWait  time.Duration

	mu      sync.Mutex
	pending []*batchWaiter
	timer   *time.Timer

	flushesSize, flushesTime *metrics.Counter // bind_batcher_flushes_total{cause}
	joined                   *metrics.Counter // bind_batcher_joined_total
}

// batchWaiter is one caller parked in the window.
type batchWaiter struct {
	q    Question
	done chan struct{}
	rrs  []RR
	err  error
	cost time.Duration
}

// BatcherConfig configures NewBatcher.
type BatcherConfig struct {
	// MaxBatch flushes a window when it holds this many questions;
	// default 16, capped at MaxBatchNames.
	MaxBatch int
	// MaxWait flushes a window this long after it opens; default 1ms.
	// This is real time — the knife-edge between amortization and added
	// latency for the first caller in a window.
	MaxWait time.Duration
	// Metrics receives the batcher's counters; nil means the
	// process-wide registry.
	Metrics *metrics.Registry
}

// NewBatcher wraps backend in an auto-batching front.
func NewBatcher(backend *HRPCClient, cfg BatcherConfig) *Batcher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.MaxBatch > MaxBatchNames {
		cfg.MaxBatch = MaxBatchNames
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	return &Batcher{
		backend:  backend,
		maxBatch: cfg.MaxBatch,
		maxWait:  cfg.MaxWait,
		flushesSize: reg.Counter(metrics.Labels("bind_batcher_flushes_total",
			"cause", "size")),
		flushesTime: reg.Counter(metrics.Labels("bind_batcher_flushes_total",
			"cause", "time")),
		joined: reg.Counter("bind_batcher_joined_total"),
	}
}

// Lookup implements Lookuper by joining the open batch window.
func (ba *Batcher) Lookup(ctx context.Context, name string, t RRType) ([]RR, error) {
	w := &batchWaiter{q: Question{Name: name, Type: t}, done: make(chan struct{})}
	ba.mu.Lock()
	ba.pending = append(ba.pending, w)
	if len(ba.pending) > 1 {
		ba.joined.Inc()
	}
	switch {
	case len(ba.pending) >= ba.maxBatch:
		batch := ba.takeLocked()
		ba.mu.Unlock()
		ba.flushesSize.Inc()
		ba.run(batch)
	case len(ba.pending) == 1:
		// First into the window: arm the timer that bounds how long it
		// stays open.
		ba.timer = time.AfterFunc(ba.maxWait, func() {
			ba.mu.Lock()
			batch := ba.takeLocked()
			ba.mu.Unlock()
			if len(batch) > 0 {
				ba.flushesTime.Inc()
				ba.run(batch)
			}
		})
		ba.mu.Unlock()
	default:
		ba.mu.Unlock()
	}
	select {
	case <-w.done:
	case <-ctx.Done():
		// The batch call still completes for the other waiters; this
		// caller just stops waiting for it.
		return nil, ctx.Err()
	}
	// Replay the leader's measured cost to this caller's meter: in
	// simulated time every waiter sat through the batch exchange.
	simtime.Charge(ctx, w.cost)
	return w.rrs, w.err
}

// Flush forces the open window out immediately (shutdown, tests).
func (ba *Batcher) Flush() {
	ba.mu.Lock()
	batch := ba.takeLocked()
	ba.mu.Unlock()
	if len(batch) > 0 {
		ba.run(batch)
	}
}

// takeLocked claims the pending window and disarms its timer.
func (ba *Batcher) takeLocked() []*batchWaiter {
	batch := ba.pending
	ba.pending = nil
	if ba.timer != nil {
		ba.timer.Stop()
		ba.timer = nil
	}
	return batch
}

// run executes one flushed window on a private meter and distributes
// per-slot answers and the measured cost to the waiters.
func (ba *Batcher) run(batch []*batchWaiter) {
	qs := make([]Question, len(batch))
	for i, w := range batch {
		qs[i] = w.q
	}
	m := simtime.NewMeter()
	ctx := simtime.WithMeter(context.Background(), m)
	res, err := ba.backend.LookupBatch(ctx, qs)
	cost := m.Elapsed()
	for i, w := range batch {
		w.cost = cost
		if err != nil {
			w.err = err
		} else {
			w.rrs, w.err = res[i].RRs, res[i].Err
		}
		close(w.done)
	}
}
