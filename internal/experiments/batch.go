package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hns/internal/admission"
	"hns/internal/core"
	"hns/internal/gateway"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// The batch experiment measures the PR's two front-door claims:
//
//   - Amortization: resolving N names in one FindNSMBatch call exchanges
//     a constant number of wire frames where N singles exchange 2N, and
//     at high concurrency that turns into higher sustained names/sec.
//   - Bounded shedding: a crowd of callers against an
//     admission-capped gateway sees the *served* calls' p99 bounded by
//     the in-flight cap (times the backend's service time), while the
//     uncapped arm's p99 grows with the crowd itself.
//
// Frame counts are deterministic (they count code-path events, not
// time); names/sec and the p99 comparison are wall-clock and vary with
// the host.

// BatchSpec parameterizes the batch resolution experiment.
type BatchSpec struct {
	// Names is the batch size compared against the same count of
	// single-name calls.
	Names int
	// Callers and Rounds drive the throughput arms: Callers concurrent
	// goroutines each resolving Rounds batches (or Rounds x Names
	// singles).
	Callers int
	Rounds  int
	// ShedCallers is the crowd size for the shed comparison: every
	// caller places one FindNSM call at once.
	ShedCallers int
	// ShedMaxInflight is the capped arm's admission in-flight cap.
	ShedMaxInflight int
	// ShedHandle is the backend's serialized service time per
	// resolution — the contended resource the cap protects.
	ShedHandle time.Duration
}

// DefaultBatchSpec is the hnsbench configuration: the ISSUE's bench bar
// (64 concurrent callers, batch of 16, a 10,000-caller shed crowd).
func DefaultBatchSpec() BatchSpec {
	return BatchSpec{
		Names:           16,
		Callers:         64,
		Rounds:          8,
		ShedCallers:     10000,
		ShedMaxInflight: 64,
		ShedHandle:      200 * time.Microsecond,
	}
}

// Validate checks the spec.
func (s BatchSpec) Validate() error {
	switch {
	case s.Names < 1 || s.Names > core.MaxFindBatch:
		return fmt.Errorf("experiments: batch names must be in [1, %d]", core.MaxFindBatch)
	case s.Callers < 1 || s.Rounds < 1:
		return fmt.Errorf("experiments: batch callers and rounds must be >= 1")
	case s.ShedCallers < 1 || s.ShedMaxInflight < 1:
		return fmt.Errorf("experiments: shed callers and max-inflight must be >= 1")
	case s.ShedHandle < 0:
		return fmt.Errorf("experiments: shed handle must be >= 0")
	}
	return nil
}

// BatchFrames is the deterministic wire-frame comparison.
type BatchFrames struct {
	Names        int     `json:"names"`
	BatchFrames  int64   `json:"batch_frames"`
	SingleFrames int64   `json:"single_frames"`
	Amortization float64 `json:"amortization"` // SingleFrames / BatchFrames
}

// BatchThroughput is the wall-clock names/sec comparison at Callers
// concurrent goroutines.
type BatchThroughput struct {
	Callers           int     `json:"callers"`
	Rounds            int     `json:"rounds"`
	BatchNamesPerSec  float64 `json:"batch_names_per_sec"`
	SingleNamesPerSec float64 `json:"single_names_per_sec"`
	Speedup           float64 `json:"speedup"`
}

// BatchShed is the wall-clock shed comparison: the same caller crowd
// against an uncapped and an admission-capped gateway.
type BatchShed struct {
	Callers           int     `json:"callers"`
	MaxInflight       int     `json:"max_inflight"`
	UncappedP99Ms     float64 `json:"uncapped_p99_ms"`
	CappedServedP99Ms float64 `json:"capped_served_p99_ms"`
	Served            int     `json:"served"`
	Refused           int64   `json:"refused"`
}

// BatchResult is one full run of the experiment.
type BatchResult struct {
	Frames     BatchFrames     `json:"frames"`
	Throughput BatchThroughput `json:"throughput"`
	Shed       BatchShed       `json:"shed"`
}

// batchStubBinding is the fixed answer the experiment's backend serves;
// the experiment measures the transport and front door, not resolution.
var batchStubBinding = hrpc.Binding{
	Host: "nsm-host", Addr: "nsm:1", Transport: "udp",
	DataRep: "xdr", Control: "sunrpc", Program: 200100, Version: 10,
}

// batchBackend is a Finder whose per-resolution work is serialized real
// time — the contended backend resource the shed arms fight over.
type batchBackend struct {
	mu     sync.Mutex
	handle time.Duration
}

func (b *batchBackend) FindNSM(ctx context.Context, n names.Name, qc string) (hrpc.Binding, error) {
	if b.handle > 0 {
		b.mu.Lock()
		time.Sleep(b.handle)
		b.mu.Unlock()
	}
	return batchStubBinding, nil
}

// batchEnv is one arm's deployment on its own simulated network: a stub
// backend HNS server, optionally fronted by an hnsgw, and a client.
type batchEnv struct {
	remote *core.RemoteHNS
	close  func()
}

func newBatchEnv(handle time.Duration, admit *admission.Config) (*batchEnv, error) {
	n := transport.NewNetwork(simtime.Default())
	srv := core.NewFinderServer(&batchBackend{handle: handle}, "batchbench")
	srv.Metrics = metrics.NewRegistry()
	bln, bb, err := hrpc.Serve(n, srv, hrpc.SuiteRaw, "bench", "bench:hns")
	if err != nil {
		return nil, err
	}
	closers := []func(){func() { bln.Close() }}
	fail := func(err error) (*batchEnv, error) {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		return nil, err
	}

	front := bb
	var upstream *hrpc.Client
	if admit != nil {
		upstream = hrpc.NewClient(n)
		upstream.Metrics = metrics.NewRegistry()
		closers = append(closers, func() { upstream.Close() })
		gw := gateway.New(upstream, bb, gateway.Config{Admission: admit})
		gw.SetMetrics(metrics.NewRegistry())
		gln, gb, err := gw.Serve(n, hrpc.SuiteRaw, "gw", "gw:hns")
		if err != nil {
			return fail(err)
		}
		closers = append(closers, func() { gln.Close() })
		front = gb
	}

	c := hrpc.NewClient(n)
	c.Metrics = metrics.NewRegistry()
	closers = append(closers, func() { c.Close() })
	return &batchEnv{
		remote: core.NewRemoteHNS(c, front),
		close: func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
		},
	}, nil
}

// batchQueries builds n distinct queries (the stub ignores them; they
// size the frames).
func batchQueries(n int) []core.NameQuery {
	qs := make([]core.NameQuery, n)
	for i := range qs {
		qs[i] = core.NameQuery{
			Name:       names.Must(fmt.Sprintf("ctx%d", i%4), fmt.Sprintf("host%d", i)),
			QueryClass: qclass.HostAddress,
		}
	}
	return qs
}

// framesTotal sums every transport_frames_total series in the process
// registry (the wire transports count frames there regardless of which
// client/server registries an experiment uses).
func framesTotal() int64 {
	var total int64
	for _, c := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "transport_frames_total") {
			total += c.Value
		}
	}
	return total
}

// runBatchFrames measures the deterministic frame counts on a warm
// connection: one batch of Names, then the same Names as singles.
func runBatchFrames(ctx context.Context, spec BatchSpec, e *batchEnv) (BatchFrames, error) {
	qs := batchQueries(spec.Names)
	mctx := simtime.WithMeter(ctx, simtime.NewMeter())
	// Warm the pooled connection so dial frames don't skew either arm.
	if _, err := e.remote.FindNSM(mctx, qs[0].Name, qs[0].QueryClass); err != nil {
		return BatchFrames{}, err
	}

	before := framesTotal()
	if _, err := e.remote.FindNSMBatch(mctx, qs); err != nil {
		return BatchFrames{}, err
	}
	batchFrames := framesTotal() - before

	before = framesTotal()
	for _, q := range qs {
		if _, err := e.remote.FindNSM(mctx, q.Name, q.QueryClass); err != nil {
			return BatchFrames{}, err
		}
	}
	singleFrames := framesTotal() - before

	f := BatchFrames{Names: spec.Names, BatchFrames: batchFrames, SingleFrames: singleFrames}
	if batchFrames > 0 {
		f.Amortization = float64(singleFrames) / float64(batchFrames)
	}
	return f, nil
}

// runBatchThroughput drives Callers goroutines through each arm and
// reports sustained names/sec.
func runBatchThroughput(ctx context.Context, spec BatchSpec, e *batchEnv) (BatchThroughput, error) {
	qs := batchQueries(spec.Names)
	arm := func(batched bool) (float64, error) {
		var wg sync.WaitGroup
		errs := make([]error, spec.Callers)
		start := time.Now()
		for i := 0; i < spec.Callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				mctx := simtime.WithMeter(ctx, simtime.NewMeter())
				for r := 0; r < spec.Rounds; r++ {
					if batched {
						if _, err := e.remote.FindNSMBatch(mctx, qs); err != nil {
							errs[i] = err
							return
						}
						continue
					}
					for _, q := range qs {
						if _, err := e.remote.FindNSM(mctx, q.Name, q.QueryClass); err != nil {
							errs[i] = err
							return
						}
					}
				}
			}(i)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return float64(spec.Callers*spec.Rounds*spec.Names) / wall.Seconds(), nil
	}

	t := BatchThroughput{Callers: spec.Callers, Rounds: spec.Rounds}
	var err error
	if t.SingleNamesPerSec, err = arm(false); err != nil {
		return t, err
	}
	if t.BatchNamesPerSec, err = arm(true); err != nil {
		return t, err
	}
	if t.SingleNamesPerSec > 0 {
		t.Speedup = t.BatchNamesPerSec / t.SingleNamesPerSec
	}
	return t, nil
}

// runShedArm releases ShedCallers concurrent single-name calls at once
// and reports the served calls' p99 wall latency plus the refused count
// (zero in the uncapped arm).
func runShedArm(ctx context.Context, spec BatchSpec, capped bool) (p99 time.Duration, served int, refused int64, err error) {
	var admit *admission.Config
	if capped {
		admit = &admission.Config{
			MaxInflight: spec.ShedMaxInflight,
			// Keep the client's post-shed backpressure window open past
			// the measurement, so refused work stays refused (and cheap).
			RetryAfter: time.Minute,
			Metrics:    metrics.NewRegistry(),
		}
	}
	e, err := newBatchEnv(spec.ShedHandle, admit)
	if err != nil {
		return 0, 0, 0, err
	}
	defer e.close()

	q := batchQueries(1)[0]
	lat := make([]time.Duration, spec.ShedCallers) // 0 = refused
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < spec.ShedCallers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mctx := simtime.WithMeter(ctx, simtime.NewMeter())
			<-release
			start := time.Now()
			if _, err := e.remote.FindNSM(mctx, q.Name, q.QueryClass); err == nil {
				lat[i] = time.Since(start)
			}
		}(i)
	}
	close(release)
	wg.Wait()

	servedLat := make([]time.Duration, 0, spec.ShedCallers)
	for _, d := range lat {
		if d > 0 {
			servedLat = append(servedLat, d)
		}
	}
	served = len(servedLat)
	refused = int64(spec.ShedCallers - served)
	if !capped && refused > 0 {
		return 0, served, refused, fmt.Errorf("experiments: uncapped shed arm refused %d calls", refused)
	}
	if served == 0 {
		return 0, 0, refused, fmt.Errorf("experiments: shed arm served nothing")
	}
	sort.Slice(servedLat, func(i, j int) bool { return servedLat[i] < servedLat[j] })
	p99 = servedLat[int(0.99*float64(len(servedLat)-1)+0.5)]
	return p99, served, refused, nil
}

// RunBatch runs the full experiment: the deterministic frame counts,
// the concurrent throughput comparison, and the shed comparison.
func RunBatch(ctx context.Context, spec BatchSpec) (BatchResult, error) {
	var res BatchResult
	if err := spec.Validate(); err != nil {
		return res, err
	}

	e, err := newBatchEnv(0, nil)
	if err != nil {
		return res, err
	}
	defer e.close()
	if res.Frames, err = runBatchFrames(ctx, spec, e); err != nil {
		return res, fmt.Errorf("experiments: batch frames: %w", err)
	}
	if res.Throughput, err = runBatchThroughput(ctx, spec, e); err != nil {
		return res, fmt.Errorf("experiments: batch throughput: %w", err)
	}

	uncapped, _, _, err := runShedArm(ctx, spec, false)
	if err != nil {
		return res, fmt.Errorf("experiments: uncapped shed arm: %w", err)
	}
	capped, served, refused, err := runShedArm(ctx, spec, true)
	if err != nil {
		return res, fmt.Errorf("experiments: capped shed arm: %w", err)
	}
	res.Shed = BatchShed{
		Callers:           spec.ShedCallers,
		MaxInflight:       spec.ShedMaxInflight,
		UncappedP99Ms:     simMs(uncapped),
		CappedServedP99Ms: simMs(capped),
		Served:            served,
		Refused:           refused,
	}
	return res, nil
}

// BatchDoc is the BENCH_batch.json document.
type BatchDoc struct {
	Schema string `json:"schema"`
	Note   string `json:"note"`
	Spec   struct {
		Names           int     `json:"names"`
		Callers         int     `json:"callers"`
		Rounds          int     `json:"rounds"`
		ShedCallers     int     `json:"shed_callers"`
		ShedMaxInflight int     `json:"shed_max_inflight"`
		ShedHandleMs    float64 `json:"shed_handle_ms"`
	} `json:"spec"`
	Result BatchResult `json:"result"`
}

// BatchSchema identifies the BENCH_batch.json layout; bump it when a
// field changes meaning, not just when a field is added.
const BatchSchema = "hns/bench-batch/v1"

// BuildBatchDoc assembles the document around a measured result.
func BuildBatchDoc(spec BatchSpec, res BatchResult) BatchDoc {
	var doc BatchDoc
	doc.Schema = BatchSchema
	doc.Note = "frame counts are deterministic (code-path events); names/sec and the " +
		"p99 comparison are wall-clock and vary with the host (CI runs in a 1-core container)"
	doc.Spec.Names = spec.Names
	doc.Spec.Callers = spec.Callers
	doc.Spec.Rounds = spec.Rounds
	doc.Spec.ShedCallers = spec.ShedCallers
	doc.Spec.ShedMaxInflight = spec.ShedMaxInflight
	doc.Spec.ShedHandleMs = simMs(spec.ShedHandle)
	doc.Result = res
	return doc
}

// EncodeBatchDoc renders the document as the file's canonical JSON.
func EncodeBatchDoc(doc BatchDoc) ([]byte, error) {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
