package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/bind"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// The push experiment measures the invalidation plane's two claims:
//
//   - Fetch economy: under sustained dynamic-update churn, a subscribed
//     client fleet re-fetches only what changed, where a TTL-polling
//     fleet with the same freshness bound re-fetches its whole working
//     set every poll interval. With M shared names and C churned per
//     interval the ratio is M/C, independent of fleet size.
//   - Diff economy: an IXFR catch-up moves bytes proportional to the
//     mutations missed, not to zone size, and provably falls back to a
//     full transfer when the diff window cannot prove continuity.
//
// Fetch and byte counts are deterministic (they count code-path events);
// the propagation percentiles are wall-clock fan-out latency and vary
// with the host.

// PushSpec parameterizes the push-invalidation experiment.
type PushSpec struct {
	// Rows are the simulated client-fleet sizes compared; each row runs a
	// TTL-poll arm and a subscribed arm over a fresh deployment.
	Rows []int
	// Names is the shared hot set size M: the zone's records that client
	// working sets draw from.
	Names int
	// WorkingSet is W: how many of the M names each client re-reads every
	// poll interval.
	WorkingSet int
	// ChurnPerRound is C: how many names the authority dynamically
	// updates per poll interval.
	ChurnPerRound int
	// Rounds is how many poll intervals the fetch comparison spans.
	Rounds int
	// PollIntervalSec is P: the poll arm's record TTL and the simulated
	// time advanced per round — the staleness bound both arms are held
	// to. The push arm's records carry a 1000x TTL, so any freshness it
	// shows comes from invalidation, not expiry.
	PollIntervalSec uint32
	// ZoneRecords sizes the quiet zone of the IXFR byte comparison.
	ZoneRecords int
	// DeltaRecords is how many mutations the IXFR catch-up misses.
	DeltaRecords int
	// IXFRWindow is the server's retained diff-log depth.
	IXFRWindow int
}

// DefaultPushSpec is the hnsbench configuration: the ISSUE's bench bar
// (1k/10k/100k clients; 32 hot names with 2 churned per 30s interval,
// so the equal-freshness fetch ratio is 16x).
func DefaultPushSpec() PushSpec {
	return PushSpec{
		Rows:            []int{1000, 10000, 100000},
		Names:           32,
		WorkingSet:      2,
		ChurnPerRound:   2,
		Rounds:          3,
		PollIntervalSec: 30,
		ZoneRecords:     400,
		DeltaRecords:    5,
		IXFRWindow:      64,
	}
}

// Validate checks the spec.
func (s PushSpec) Validate() error {
	if len(s.Rows) == 0 {
		return fmt.Errorf("experiments: push needs at least one client row")
	}
	for _, n := range s.Rows {
		if n < 1 {
			return fmt.Errorf("experiments: push client rows must be >= 1")
		}
	}
	switch {
	case s.WorkingSet < 1 || s.Names < s.WorkingSet:
		return fmt.Errorf("experiments: push needs 1 <= working set <= names")
	case s.ChurnPerRound < 1 || s.ChurnPerRound > s.Names:
		return fmt.Errorf("experiments: push churn must be in [1, names]")
	case s.Rounds < 1:
		return fmt.Errorf("experiments: push rounds must be >= 1")
	case s.PollIntervalSec < 1:
		return fmt.Errorf("experiments: push poll interval must be >= 1s")
	case s.DeltaRecords < 1 || s.ZoneRecords < s.DeltaRecords:
		return fmt.Errorf("experiments: push needs 1 <= delta records <= zone records")
	case s.IXFRWindow < s.DeltaRecords:
		return fmt.Errorf("experiments: push diff window must cover the delta")
	}
	return nil
}

// PushRow is one fleet size's poll-vs-subscribe comparison.
type PushRow struct {
	Clients int `json:"clients"`
	// PollFetches / PushFetches are each arm's authority fetches over
	// Rounds poll intervals, working-set warmup excluded. Deterministic.
	PollFetches int64   `json:"poll_fetches"`
	PushFetches int64   `json:"push_fetches"`
	FetchRatio  float64 `json:"fetch_ratio"` // PollFetches / PushFetches
	// Propagation percentiles: wall time from the dynamic update landing
	// to each subscriber's invalidation handler having run.
	PropagationP50Ms float64 `json:"propagation_p50_ms"`
	PropagationP99Ms float64 `json:"propagation_p99_ms"`
	// PollIntervalMs is the polling arm's staleness bound — the number
	// the propagation percentiles are up against.
	PollIntervalMs float64 `json:"poll_interval_ms"`
}

// PushIXFR is the incremental-transfer byte comparison.
type PushIXFR struct {
	ZoneRecords  int     `json:"zone_records"`
	DeltaRecords int     `json:"delta_records"`
	FullBytes    int64   `json:"full_transfer_bytes"`
	DeltaBytes   int64   `json:"delta_transfer_bytes"`
	BytesRatio   float64 `json:"bytes_ratio"` // FullBytes / DeltaBytes
	// FallbackFull records that a request from before the diff window was
	// answered "take a full transfer" rather than a wrong diff.
	FallbackFull bool `json:"fallback_full"`
}

// PushResult is one full run of the experiment.
type PushResult struct {
	Rows []PushRow `json:"rows"`
	IXFR PushIXFR  `json:"ixfr"`
}

// pushBenchName returns the i-th shared hot name.
func pushBenchName(i int) string {
	return fmt.Sprintf("n%04d.push.hns", i)
}

// countingLookuper counts authority fetches across every client cache
// sharing it — the experiment's primary meter.
type countingLookuper struct {
	inner   bind.Lookuper
	fetches atomic.Int64
}

func (c *countingLookuper) Lookup(ctx context.Context, name string, t bind.RRType) ([]bind.RR, error) {
	c.fetches.Add(1)
	return c.inner.Lookup(ctx, name, t)
}

// pushBenchEnv is one arm's deployment: an authoritative bindd-shaped
// server on its own in-process network, and a shared counted client.
type pushBenchEnv struct {
	srv     *bind.Server
	zone    *bind.Zone
	client  *bind.HRPCClient
	counter *countingLookuper
	clk     *simtime.FakeClock
	close   func()
}

// newPushBenchEnv deploys a zone of records records with TTL ttlSec.
// With pushOn the server carries a diff log and a subscriber table sized
// for maxSubs.
func newPushBenchEnv(spec PushSpec, records int, ttlSec uint32, pushOn bool, maxSubs int) (*pushBenchEnv, error) {
	net := transport.NewNetwork(simtime.Default())
	srv := bind.NewServer("pushbench", simtime.Default())
	z, err := bind.NewZone("hns", true)
	if err != nil {
		return nil, err
	}
	if err := srv.AddZone(z); err != nil {
		return nil, err
	}
	rrs := make([]bind.RR, records)
	for i := range rrs {
		rrs[i] = bind.HNSMeta(pushBenchName(i), fmt.Sprintf("ns=push-%d", i), ttlSec)
	}
	if err := z.Replace(rrs, 1); err != nil {
		return nil, err
	}
	if pushOn {
		z.EnableDiffLog(spec.IXFRWindow)
		srv.EnablePush(maxSubs)
	}
	ln, binding, err := srv.ServeHRPC(net, "pushbench:bind-hrpc")
	if err != nil {
		return nil, err
	}
	rpc := hrpc.NewClient(net)
	client := bind.NewHRPCClient(rpc, binding)
	return &pushBenchEnv{
		srv:     srv,
		zone:    z,
		client:  client,
		counter: &countingLookuper{inner: client},
		clk:     simtime.NewFakeClock(time.Unix(1987, 0)),
		close:   func() { rpc.Close(); ln.Close() },
	}, nil
}

// bytesTotal sums every transport_bytes_total series in the process
// registry; deltas around a transfer give its wire bytes.
func bytesTotal() int64 {
	var total int64
	for _, c := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "transport_bytes_total") {
			total += c.Value
		}
	}
	return total
}

// pushBenchClient is one simulated client: a private TTL cache, and in
// the subscribed arm a push subscription invalidating it.
type pushBenchClient struct {
	res *bind.Resolver
	sub *bind.Subscriber
}

// workingSet lists client i's W hot names: W consecutive names starting
// at i mod M, so every name is held by ~W*N/M clients and the expected
// per-round push fetch count is C*W*N/M.
func workingSet(spec PushSpec, i int) []string {
	ws := make([]string, spec.WorkingSet)
	for j := range ws {
		ws[j] = pushBenchName((i + j) % spec.Names)
	}
	return ws
}

// propRecorder collects per-subscriber propagation latency for one
// marked update. The sim transport runs handlers on the publisher's
// goroutine, but the recorder locks anyway — handler ordering is the
// transport's business, not ours.
type propRecorder struct {
	armed atomic.Bool
	name  string
	mu    sync.Mutex
	start time.Time
	durs  []time.Duration
}

func (r *propRecorder) record() {
	d := time.Since(r.start)
	r.mu.Lock()
	r.durs = append(r.durs, d)
	r.mu.Unlock()
}

// runPushArm measures one fleet arm. subscribe=false is TTL polling
// (records expire every poll interval); subscribe=true holds long-TTL
// records fresh by NOTIFY invalidation. Returns the authority fetch
// count over spec.Rounds intervals and, for the subscribed arm, the
// propagation percentiles of one marked update.
func runPushArm(ctx context.Context, spec PushSpec, clients int, subscribe bool) (fetches int64, p50, p99 time.Duration, err error) {
	ttl := spec.PollIntervalSec
	if subscribe {
		ttl = spec.PollIntervalSec * 1000 // freshness must come from invalidation
	}
	e, err := newPushBenchEnv(spec, spec.Names, ttl, subscribe, clients+16)
	if err != nil {
		return 0, 0, 0, err
	}
	defer e.close()
	mctx := simtime.WithMeter(ctx, simtime.NewMeter())

	rec := &propRecorder{name: pushBenchName(0), durs: make([]time.Duration, 0, clients)}
	fleet := make([]pushBenchClient, clients)
	for i := range fleet {
		res := bind.NewResolver(e.counter, simtime.Default(), bind.ResolverConfig{Clock: e.clk})
		fleet[i].res = res
		if subscribe {
			fleet[i].sub = e.client.Subscribe(bind.SubscribeConfig{
				Zone: "hns",
				OnNotify: func(n push.Notification) {
					if n.Name == "" {
						res.Purge()
					} else {
						res.Invalidate(n.Name, bind.TypeHNSMeta)
					}
					if rec.armed.Load() && n.Name == rec.name {
						rec.record()
					}
				},
				OnReset: func() { res.Purge() },
			})
		}
	}
	if subscribe {
		deadline := time.Now().Add(time.Minute)
		for i := range fleet {
			for !fleet[i].sub.Active() {
				if fleet[i].sub.Degraded() {
					return 0, 0, 0, fmt.Errorf("experiments: push subscriber %d degraded", i)
				}
				if time.Now().After(deadline) {
					return 0, 0, 0, fmt.Errorf("experiments: push subscriber %d never became active", i)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		defer func() {
			for i := range fleet {
				fleet[i].sub.Close()
			}
		}()
	}

	lookupSet := func(i int) error {
		for _, name := range workingSet(spec, i) {
			if _, err := fleet[i].res.Lookup(mctx, name, bind.TypeHNSMeta); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm every working set, then zero the meter: the comparison is
	// steady-state behaviour, not cold-start.
	for i := range fleet {
		if err := lookupSet(i); err != nil {
			return 0, 0, 0, err
		}
	}
	e.counter.fetches.Store(0)

	churn := func(round int) (uint32, error) {
		var serial uint32
		for k := 0; k < spec.ChurnPerRound; k++ {
			i := (round*spec.ChurnPerRound + k) % spec.Names
			rr := bind.HNSMeta(pushBenchName(i), fmt.Sprintf("ns=push-%d", i), ttl)
			rcode, s, err := e.srv.Update(mctx, "hns", bind.UpdateAdd, rr)
			if err != nil || rcode != bind.RCodeOK {
				return 0, fmt.Errorf("experiments: push churn: rcode %v: %v", rcode, err)
			}
			serial = s
		}
		return serial, nil
	}
	for r := 0; r < spec.Rounds; r++ {
		serial, err := churn(r)
		if err != nil {
			return 0, 0, 0, err
		}
		if subscribe {
			// The sim transport delivers pushes synchronously, but hold the
			// invariant explicitly: every subscriber has processed the
			// round's churn before anyone reads.
			deadline := time.Now().Add(time.Minute)
			for i := range fleet {
				for fleet[i].sub.LastSerial() < serial {
					if time.Now().After(deadline) {
						return 0, 0, 0, fmt.Errorf("experiments: push fan-out stalled at subscriber %d", i)
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}
		e.clk.Advance(time.Duration(spec.PollIntervalSec)*time.Second + time.Nanosecond)
		for i := range fleet {
			if err := lookupSet(i); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	fetches = e.counter.fetches.Load()

	if subscribe {
		// One marked update: wall time from the authority applying it to
		// each subscriber's handler having invalidated. The handlers run in
		// the fan-out itself, so the tail percentile is the cost of telling
		// the whole fleet.
		rec.start = time.Now()
		rec.armed.Store(true)
		rr := bind.HNSMeta(rec.name, "ns=push-0", ttl)
		if rcode, _, err := e.srv.Update(mctx, "hns", bind.UpdateAdd, rr); err != nil || rcode != bind.RCodeOK {
			return fetches, 0, 0, fmt.Errorf("experiments: push marked update: rcode %v: %v", rcode, err)
		}
		rec.armed.Store(false)
		if len(rec.durs) < clients {
			return fetches, 0, 0, fmt.Errorf("experiments: marked update reached %d of %d subscribers",
				len(rec.durs), clients)
		}
		sort.Slice(rec.durs, func(i, j int) bool { return rec.durs[i] < rec.durs[j] })
		p50 = rec.durs[len(rec.durs)/2]
		p99 = rec.durs[int(0.99*float64(len(rec.durs)-1)+0.5)]
	}
	return fetches, p50, p99, nil
}

// runPushIXFR measures the diff economy on a quiet deployment: a full
// transfer of the whole zone, then an incremental catch-up that missed
// exactly DeltaRecords mutations, then the out-of-window fallback.
func runPushIXFR(ctx context.Context, spec PushSpec) (PushIXFR, error) {
	res := PushIXFR{ZoneRecords: spec.ZoneRecords, DeltaRecords: spec.DeltaRecords}
	e, err := newPushBenchEnv(spec, spec.ZoneRecords, spec.PollIntervalSec, true, 16)
	if err != nil {
		return res, err
	}
	defer e.close()
	mctx := simtime.WithMeter(ctx, simtime.NewMeter())

	// Warm the connection so dial bytes don't land in either measurement.
	if _, err := e.client.Lookup(mctx, pushBenchName(0), bind.TypeHNSMeta); err != nil {
		return res, err
	}

	before := bytesTotal()
	serial, rrs, err := e.client.Transfer(mctx, "hns")
	if err != nil {
		return res, err
	}
	res.FullBytes = bytesTotal() - before
	if len(rrs) != spec.ZoneRecords {
		return res, fmt.Errorf("experiments: full transfer moved %d records, want %d", len(rrs), spec.ZoneRecords)
	}

	for i := 0; i < spec.DeltaRecords; i++ {
		rr := bind.HNSMeta(pushBenchName(i), fmt.Sprintf("ns=push-%d", i), spec.PollIntervalSec)
		if rcode, _, err := e.srv.Update(mctx, "hns", bind.UpdateAdd, rr); err != nil || rcode != bind.RCodeOK {
			return res, fmt.Errorf("experiments: ixfr churn: rcode %v: %v", rcode, err)
		}
	}
	before = bytesTotal()
	_, diffs, ok, err := e.client.TransferDelta(mctx, "hns", serial)
	if err != nil {
		return res, err
	}
	res.DeltaBytes = bytesTotal() - before
	if !ok || len(diffs) != spec.DeltaRecords {
		return res, fmt.Errorf("experiments: incremental transfer returned ok=%v with %d diffs, want %d",
			ok, len(diffs), spec.DeltaRecords)
	}
	if res.DeltaBytes > 0 {
		res.BytesRatio = float64(res.FullBytes) / float64(res.DeltaBytes)
	}

	// Serial 0 predates the diff log: the server must refuse to fake a
	// diff and direct the peer to a full transfer.
	_, _, ok, err = e.client.TransferDelta(mctx, "hns", 0)
	if err != nil {
		return res, err
	}
	res.FallbackFull = !ok
	return res, nil
}

// RunPush runs the full experiment: the fetch comparison at every fleet
// size, then the IXFR byte comparison.
func RunPush(ctx context.Context, spec PushSpec) (PushResult, error) {
	var res PushResult
	if err := spec.Validate(); err != nil {
		return res, err
	}
	for _, clients := range spec.Rows {
		poll, _, _, err := runPushArm(ctx, spec, clients, false)
		if err != nil {
			return res, fmt.Errorf("experiments: poll arm at %d clients: %w", clients, err)
		}
		pushed, p50, p99, err := runPushArm(ctx, spec, clients, true)
		if err != nil {
			return res, fmt.Errorf("experiments: push arm at %d clients: %w", clients, err)
		}
		row := PushRow{
			Clients:          clients,
			PollFetches:      poll,
			PushFetches:      pushed,
			PropagationP50Ms: simMs(p50),
			PropagationP99Ms: simMs(p99),
			PollIntervalMs:   float64(spec.PollIntervalSec) * 1000,
		}
		if pushed > 0 {
			row.FetchRatio = float64(poll) / float64(pushed)
		}
		res.Rows = append(res.Rows, row)
	}
	var err error
	if res.IXFR, err = runPushIXFR(ctx, spec); err != nil {
		return res, fmt.Errorf("experiments: ixfr comparison: %w", err)
	}
	return res, nil
}

// PushDoc is the BENCH_push.json document.
type PushDoc struct {
	Schema string `json:"schema"`
	Note   string `json:"note"`
	Spec   struct {
		Rows            []int  `json:"rows"`
		Names           int    `json:"names"`
		WorkingSet      int    `json:"working_set"`
		ChurnPerRound   int    `json:"churn_per_round"`
		Rounds          int    `json:"rounds"`
		PollIntervalSec uint32 `json:"poll_interval_sec"`
		ZoneRecords     int    `json:"zone_records"`
		DeltaRecords    int    `json:"delta_records"`
		IXFRWindow      int    `json:"ixfr_window"`
	} `json:"spec"`
	Result PushResult `json:"result"`
}

// PushSchema identifies the BENCH_push.json layout; bump it when a field
// changes meaning, not just when a field is added.
const PushSchema = "hns/bench-push/v1"

// BuildPushDoc assembles the document around a measured result.
func BuildPushDoc(spec PushSpec, res PushResult) PushDoc {
	var doc PushDoc
	doc.Schema = PushSchema
	doc.Note = "fetch and byte counts are deterministic (code-path events); the propagation " +
		"percentiles are wall-clock fan-out latency and vary with the host"
	doc.Spec.Rows = spec.Rows
	doc.Spec.Names = spec.Names
	doc.Spec.WorkingSet = spec.WorkingSet
	doc.Spec.ChurnPerRound = spec.ChurnPerRound
	doc.Spec.Rounds = spec.Rounds
	doc.Spec.PollIntervalSec = spec.PollIntervalSec
	doc.Spec.ZoneRecords = spec.ZoneRecords
	doc.Spec.DeltaRecords = spec.DeltaRecords
	doc.Spec.IXFRWindow = spec.IXFRWindow
	doc.Result = res
	return doc
}

// EncodePushDoc renders the document as the file's canonical JSON.
func EncodePushDoc(doc PushDoc) ([]byte, error) {
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
