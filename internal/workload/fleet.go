// fleet.go grows the population runner into a simulated fleet engine:
// per-site client populations drawn over the internal/colocate topology,
// Zipf name popularity, diurnal load curves over simtime, and an explicit
// cache-hierarchy tier model —
//
//	per-host resolver  →  site hnsd  →  authoritative bindd
//
// so per-tier hit ratios are first-class results rather than a byproduct
// of one shared cache counter. An opt-in fourth tier (FleetSpec.Gateway)
// fronts every remote site's hnsd with an admission-controlled hnsgw.
//
// A fleet run is one deterministic pass: every client runs sequentially
// in a canonical order on a fake clock, producing seed-reproducible
// numbers — p50/p99 simulated latency, per-tier hit ratios, effective
// authority fetches, and stale counts. Two runs with the same spec are
// bit-identical. (Real-time, concurrent load is bench/hnsload's job,
// over real sockets.)
//
// The engine only composes existing seeded primitives (the cost model,
// the meta resolver, the chaos transport); it never changes per-call cost
// accounting, so Table 3.1/3.2 stay bit-identical.
package workload

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"hns/internal/admission"
	"hns/internal/bind"
	"hns/internal/colocate"
	"hns/internal/core"
	"hns/internal/gateway"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
	"hns/internal/world"
)

// fleetEpoch anchors every fleet run's fake clock (November 1987, like
// the other clocked experiments).
var fleetEpoch = time.Unix(563328000, 0)

// Diurnal shapes the load curve over simulated time: ops are assigned to
// Slots time slots with weight 1 + Amplitude*sin(2π(slot/Slots + Phase)),
// and the fake clock advances SlotStep between slots. The zero value is a
// flat single-slot curve (everything arrives at once).
type Diurnal struct {
	// Amplitude in [0, 1]: 0 is flat, 1 swings between ~0 and 2x mean.
	Amplitude float64
	// Phase shifts the curve, as a fraction of a full cycle in [0, 1).
	Phase float64
	// Slots is the number of load slots; <= 0 means 1.
	Slots int
	// SlotStep is how far the fake clock advances between slots. Steps
	// longer than the cache TTLs force re-resolution each slot.
	SlotStep time.Duration
}

func (d Diurnal) slots() int {
	if d.Slots <= 0 {
		return 1
	}
	return d.Slots
}

// weight is slot s's relative share of the load, floored so no slot is
// starved entirely.
func (d Diurnal) weight(s int) float64 {
	if d.Amplitude == 0 {
		return 1
	}
	w := 1 + d.Amplitude*math.Sin(2*math.Pi*(float64(s)/float64(d.slots())+d.Phase))
	if w < 0.05 {
		w = 0.05
	}
	return w
}

// peakSlot is the slot with the highest diurnal weight (ties to the
// earliest), where scenarios schedule their worst-case faults.
func peakSlot(d Diurnal) int {
	best, bestW := 0, math.Inf(-1)
	for s := 0; s < d.slots(); s++ {
		if w := d.weight(s); w > bestW {
			best, bestW = s, w
		}
	}
	return best
}

// GatewayTier configures the optional fourth tier: an hnsgw front door
// interposed between clients and every remote site's hnsd, so the
// hierarchy becomes
//
//	per-host resolver → hnsgw → site hnsd → authoritative bindd
//
// Each remote site gets its own gateway (and admission controller) on
// the site's metrics registry; sites whose arrangement links the HNS
// into the client process have no wire hop to front and are unchanged.
// A nil GatewayTier (the default) leaves the fleet exactly as before,
// which is what keeps the `hnsbench -prose scale` matrix bit-identical.
type GatewayTier struct {
	// Rate and Burst are per-client admission limits at each gateway
	// (requests/sec and bucket depth); Rate <= 0 disables rate limiting.
	Rate, Burst float64
	// MaxInflight caps concurrently admitted calls per gateway; <= 0
	// disables the load cap.
	MaxInflight int
	// LowWatermark is the fraction of MaxInflight past which batch
	// (Low-priority) calls shed; <= 0 means no priority distinction.
	LowWatermark float64
	// RetryAfter is the backoff hint carried in Overloaded replies;
	// <= 0 means the admission default.
	RetryAfter time.Duration
}

// enabled reports whether any admission limit is configured (without
// one the gateway still forwards, it just never sheds).
func (g *GatewayTier) admissionConfig(clk *simtime.FakeClock, reg *metrics.Registry) *admission.Config {
	if g.Rate <= 0 && g.MaxInflight <= 0 {
		return nil
	}
	return &admission.Config{
		Rate:         g.Rate,
		Burst:        g.Burst,
		MaxInflight:  g.MaxInflight,
		LowWatermark: g.LowWatermark,
		RetryAfter:   g.RetryAfter,
		Clock:        clk,
		Metrics:      reg,
	}
}

// FleetSpec describes one simulated fleet.
type FleetSpec struct {
	// Sites is how many sites the population spreads over; each site
	// gets a seeded client share and a Table 3.1 colocation arrangement
	// (colocate.Topology).
	Sites int
	// Clients is the total population across all sites.
	Clients int
	// OpsPerClient, Contexts, Skew, Seed are as in Spec.
	OpsPerClient int
	Contexts     int
	Skew         float64
	Seed         int64
	// HostTTL is the per-host resolver tier's entry lifetime (tier 0 of
	// the hierarchy); <= 0 means 10 minutes.
	HostTTL time.Duration
	// Diurnal shapes the load curve.
	Diurnal Diurnal
	// Gateway, when non-nil, fronts every remote site's hnsd with an
	// admission-controlled hnsgw (the optional fourth tier). Nil — the
	// default — changes nothing.
	Gateway *GatewayTier
	// Push, when true, has scenarios that honour it (hotupdate) enable
	// the meta server's push plane and subscribe every site's hnsd to
	// it, so dynamic updates invalidate site meta-caches by NOTIFY
	// instead of aging out by TTL. False — the default — changes
	// nothing.
	Push bool
	// ChurnPerSlot is how many meta records the hotupdate scenario
	// rewrites before each slot; <= 0 lets the scenario choose.
	ChurnPerSlot int
}

func (s FleetSpec) base() Spec {
	return Spec{Clients: s.Clients, OpsPerClient: s.OpsPerClient,
		Contexts: s.Contexts, Skew: s.Skew, Seed: s.Seed}
}

// Validate checks the spec.
func (s FleetSpec) Validate() error {
	if err := s.base().Validate(); err != nil {
		return err
	}
	d := s.Diurnal
	switch {
	case s.Sites <= 0:
		return fmt.Errorf("workload: need at least one site")
	case s.HostTTL < 0:
		return fmt.Errorf("workload: HostTTL must be >= 0")
	case math.IsNaN(d.Amplitude) || d.Amplitude < 0 || d.Amplitude > 1:
		return fmt.Errorf("workload: diurnal amplitude must be in [0, 1]")
	case math.IsNaN(d.Phase) || d.Phase < 0 || d.Phase >= 1:
		return fmt.Errorf("workload: diurnal phase must be in [0, 1)")
	case d.Slots < 0:
		return fmt.Errorf("workload: diurnal slots must be >= 0")
	case d.SlotStep < 0:
		return fmt.Errorf("workload: diurnal slot step must be >= 0")
	}
	if g := s.Gateway; g != nil {
		switch {
		case math.IsNaN(g.Rate) || g.Rate < 0:
			return fmt.Errorf("workload: gateway rate must be >= 0")
		case math.IsNaN(g.Burst) || g.Burst < 0:
			return fmt.Errorf("workload: gateway burst must be >= 0")
		case g.MaxInflight < 0:
			return fmt.Errorf("workload: gateway max-inflight must be >= 0")
		case math.IsNaN(g.LowWatermark) || g.LowWatermark < 0 || g.LowWatermark > 1:
			return fmt.Errorf("workload: gateway low watermark must be in [0, 1]")
		case g.RetryAfter < 0:
			return fmt.Errorf("workload: gateway retry-after must be >= 0")
		}
	}
	return nil
}

func (s FleetSpec) hostTTL() time.Duration {
	if s.HostTTL <= 0 {
		return 10 * time.Minute
	}
	return s.HostTTL
}

// TierStats is one cache tier's view of the run: how many requests
// reached it and how many it absorbed.
type TierStats struct {
	// Requests is how many FindNSM operations reached this tier (were
	// not absorbed above it).
	Requests int64
	// Hits is how many of those this tier absorbed.
	Hits int64
	// HitRatio is Hits/Requests (0 when nothing reached the tier).
	HitRatio float64
}

func (t *TierStats) finish() {
	if t.Requests > 0 {
		t.HitRatio = float64(t.Hits) / float64(t.Requests)
	}
}

// SlotStats is the run broken out per diurnal slot.
type SlotStats struct {
	Slot int
	// Ops is how many operations landed in the slot.
	Ops int
	// MeanCost is the mean simulated cost per op in the slot.
	MeanCost time.Duration
	// AuthorityFetches counts effective backend fetches (meta-cache
	// misses net of coalescing) charged during the slot.
	AuthorityFetches int64
}

// FleetResult reports one fleet run. Every field is deterministic given
// the spec and scenario: two runs with the same seeds are identical.
type FleetResult struct {
	Scenario string
	Sites    int
	Clients  int
	Ops      int

	// P50, P99, Mean summarize per-op simulated latency.
	P50, P99, Mean time.Duration
	// TotalSimCost is the population's summed simulated cost.
	TotalSimCost time.Duration
	// Host, Site, Authority are the cache-hierarchy tiers, top down:
	// the per-host resolver, the site hnsd's meta-cache, and the
	// authoritative meta bindd (a "hit" there is a fresh authoritative
	// answer; a miss is a stale or failed one).
	Host, Site, Authority TierStats
	// AuthorityFetches counts effective backend fetches.
	AuthorityFetches int64
	// StaleOps counts ops answered (at least partly) from expired
	// entries in serve-stale degraded mode.
	StaleOps int64
	// Probes and StaleProbes are the scenario's freshness
	// probes (hooks.AfterSlot): a stale probe is a site answering with
	// pre-churn data after an update already landed at the authority.
	// Zero for scenarios without probes.
	Probes, StaleProbes int64
	// Failures counts ops that returned an error.
	Failures int
	// GatewayShed counts calls the optional hnsgw tier refused with a
	// typed Overloaded (always 0 when the tier is off).
	GatewayShed int64
	// Slots is the per-slot breakdown.
	Slots []SlotStats
}

// FleetHooks let a scenario customize a run. All hooks are optional.
type FleetHooks struct {
	// NewSiteHNS builds a site's HNS instance on the given registry;
	// nil uses the world's standard construction.
	NewSiteHNS func(reg *metrics.Registry) *core.HNS
	// BeforeSlot runs before each slot's ops (fault injection).
	BeforeSlot func(slot int)
	// AfterSlot runs after each slot's ops and before the clock
	// advances — freshness probes. It returns how many probes it made
	// and how many came back stale; the run accumulates the counts into
	// FleetResult.
	AfterSlot func(ctx context.Context, slot int) (probes, stale int64, err error)
	// Remap rewrites an op's context index per slot (popularity
	// inversion). It must be pure.
	Remap func(ctxIdx, slot int) int
	// Close releases scenario resources the world doesn't own.
	Close func()
}

// FleetSetup builds a scenario's hooks over a freshly built world; it is
// invoked once per run.
type FleetSetup func(ctx context.Context, w *world.World, clk *simtime.FakeClock) (FleetHooks, error)

// fleetOp is one drawn operation: which context, in which slot.
type fleetOp struct {
	ctx  int
	slot int
}

// fleetClient is one client's state: its site, its drawn op stream
// (ascending by slot, draw order within a slot), and its host-tier
// resolver cache (context index → entry expiry on the fake clock).
type fleetClient struct {
	site  int
	ops   []fleetOp
	next  int
	cache map[int]time.Time
}

// slotCum precomputes the cumulative diurnal weights for slot draws.
func slotCum(d Diurnal) []float64 {
	cum := make([]float64, d.slots())
	total := 0.0
	for s := range cum {
		total += d.weight(s)
		cum[s] = total
	}
	return cum
}

// drawFleetOps draws one client's op stream: contexts first (the same
// per-(seed, client) draw discipline as Spec.Draw), then slots from the
// diurnal curve, all from one seeded source.
func drawFleetOps(spec FleetSpec, cum []float64, global int) []fleetOp {
	rng := clientRNG(spec.Seed, global)
	ctxs := drawContexts(rng, spec.OpsPerClient, spec.Contexts, spec.Skew)
	slots := len(cum)
	ops := make([]fleetOp, 0, len(ctxs))
	if slots == 1 {
		for _, c := range ctxs {
			ops = append(ops, fleetOp{ctx: c})
		}
		return ops
	}
	total := cum[slots-1]
	buckets := make([][]int, slots)
	for _, c := range ctxs {
		s := sort.SearchFloat64s(cum, rng.Float64()*total)
		if s >= slots {
			s = slots - 1
		}
		buckets[s] = append(buckets[s], c)
	}
	for s, b := range buckets {
		for _, c := range b {
			ops = append(ops, fleetOp{ctx: c, slot: s})
		}
	}
	return ops
}

// siteState is one site's deployed HNS: the backing instance (for tier
// accounting), the finder clients call (remote for remote arrangements),
// and the site's own metrics registry.
type siteState struct {
	site   colocate.Site
	h      *core.HNS
	finder core.Finder
	reg    *metrics.Registry
}

// fleetEnv is one run's environment: a fresh world, the site fleet, and
// every client's drawn stream.
type fleetEnv struct {
	w         *world.World
	clk       *simtime.FakeClock
	hooks     FleetHooks
	sites     []siteState
	clients   []fleetClient
	slots     int
	listeners []transport.Listener
	gwClients []*hrpc.Client // per-site gateway upstream pools
}

func (e *fleetEnv) Close() {
	if e.hooks.Close != nil {
		e.hooks.Close()
	}
	for _, ln := range e.listeners {
		ln.Close()
	}
	for _, c := range e.gwClients {
		c.Close()
	}
	e.w.Close()
}

// buildFleet stands up one run: world, synthetic contexts, scenario
// hooks, sites (served remotely where the arrangement says so), and the
// client streams.
func buildFleet(ctx context.Context, spec FleetSpec, setup FleetSetup) (*fleetEnv, error) {
	clk := simtime.NewFakeClock(fleetEpoch)
	w, err := world.New(world.Config{Clock: clk, CacheMode: bind.CacheMarshalled})
	if err != nil {
		return nil, err
	}
	e := &fleetEnv{w: w, clk: clk, slots: spec.Diurnal.slots()}
	ok := false
	defer func() {
		if !ok {
			e.Close()
		}
	}()

	for i := 0; i < spec.Contexts; i++ {
		if _, err := w.AddSyntheticType(ctx, i); err != nil {
			return nil, err
		}
	}
	if setup != nil {
		h, err := setup(ctx, w, clk)
		if err != nil {
			return nil, err
		}
		e.hooks = h
	}

	topo := colocate.Topology(spec.Sites, spec.Clients, spec.Seed)
	for _, site := range topo {
		reg := metrics.NewRegistry()
		var h *core.HNS
		if e.hooks.NewSiteHNS != nil {
			h = e.hooks.NewSiteHNS(reg)
		} else {
			h = w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled, Metrics: reg})
		}
		st := siteState{site: site, h: h, finder: h, reg: reg}
		if site.Arrangement.HNSIsRemote() {
			host := fmt.Sprintf("site%d", site.Index)
			ln, b, err := core.ServeHNS(w.Net, h, host, host+":hnsd")
			if err != nil {
				return nil, err
			}
			e.listeners = append(e.listeners, ln)
			if spec.Gateway != nil {
				b, err = e.frontWithGateway(spec.Gateway, clk, host, b, reg)
				if err != nil {
					return nil, err
				}
			}
			st.finder = core.NewRemoteHNS(w.RPC, b)
		}
		e.sites = append(e.sites, st)
	}

	cum := slotCum(spec.Diurnal)
	e.clients = make([]fleetClient, 0, spec.Clients)
	global := 0
	for si, site := range topo {
		for k := 0; k < site.Clients; k++ {
			e.clients = append(e.clients, fleetClient{
				site:  si,
				ops:   drawFleetOps(spec, cum, global),
				cache: make(map[int]time.Time, 2),
			})
			global++
		}
	}
	ok = true
	return e, nil
}

// frontWithGateway interposes an hnsgw between the fleet's clients and
// a remote site's hnsd. Each site gets its own gateway, upstream client
// pool, and (when limits are set) admission controller, all accounted
// on the site's registry so per-site shed counts stay attributable.
func (e *fleetEnv) frontWithGateway(g *GatewayTier, clk *simtime.FakeClock, host string, backend hrpc.Binding, reg *metrics.Registry) (hrpc.Binding, error) {
	up := hrpc.NewClient(e.w.Net)
	up.Metrics = reg
	gw := gateway.New(up, backend, gateway.Config{
		Name:      "hnsgw@" + host,
		Admission: g.admissionConfig(clk, reg),
	})
	gw.SetMetrics(reg)
	ln, b, err := gw.Serve(e.w.Net, hrpc.SuiteRaw, host+"-gw", host+":hnsgw")
	if err != nil {
		up.Close()
		return hrpc.Binding{}, err
	}
	e.listeners = append(e.listeners, ln)
	e.gwClients = append(e.gwClients, up)
	return b, nil
}

// gatewayShed totals the admission sheds across every site's registry
// (only the optional gateways register admission series).
func (e *fleetEnv) gatewayShed() int64 {
	var total int64
	for i := range e.sites {
		total += sumRegCounters(e.sites[i].reg, "admission_shed_total")
	}
	return total
}

// opName resolves the op's (possibly remapped) context to the FindNSM
// target name.
func (e *fleetEnv) opName(op fleetOp) (names.Name, int) {
	idx := op.ctx
	if e.hooks.Remap != nil {
		idx = e.hooks.Remap(idx, op.slot)
	}
	return names.Must(world.SyntheticContext(idx), world.SyntheticHost(idx)), idx
}

// RunFleet executes the fleet run on a fresh world built from the seeded
// spec (and setup, when a scenario provides one): every client
// sequentially, in client order within each slot, on the fake clock.
func RunFleet(ctx context.Context, spec FleetSpec, setup FleetSetup) (FleetResult, error) {
	if err := spec.Validate(); err != nil {
		return FleetResult{}, err
	}
	res := FleetResult{Sites: spec.Sites, Clients: spec.Clients}
	e, err := buildFleet(ctx, spec, setup)
	if err != nil {
		return res, fmt.Errorf("workload: fleet run: %w", err)
	}
	defer e.Close()

	hostTTL := spec.hostTTL()
	costs := make([]time.Duration, 0, spec.Clients*spec.OpsPerClient)
	res.Slots = make([]SlotStats, e.slots)

	for s := 0; s < e.slots; s++ {
		if e.hooks.BeforeSlot != nil {
			e.hooks.BeforeSlot(s)
		}
		ss := &res.Slots[s]
		ss.Slot = s
		var slotCost time.Duration
		for ci := range e.clients {
			c := &e.clients[ci]
			st := &e.sites[c.site]
			for c.next < len(c.ops) && c.ops[c.next].slot == s {
				op := c.ops[c.next]
				c.next++
				name, idx := e.opName(op)
				now := e.clk.Now()
				res.Host.Requests++

				// Tier 0: the per-host resolver. A live entry answers
				// for one demarshalled cache probe.
				if exp, ok := c.cache[idx]; ok && now.Before(exp) {
					cost := simtime.CacheHit(1)
					costs = append(costs, cost)
					slotCost += cost
					ss.Ops++
					res.Host.Hits++
					continue
				}

				// Tiers 1-2: the site hnsd and, behind its misses, the
				// authoritative meta bindd. The run is sequential, so
				// the site instance's counter deltas attribute exactly
				// this op's misses and stale serves.
				before := st.h.Stats().Cache
				cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
					_, err := st.finder.FindNSM(ctx, name, qclass.HostAddress)
					return err
				})
				after := st.h.Stats().Cache
				misses := after.Misses - before.Misses
				stale := after.StaleServed - before.StaleServed

				costs = append(costs, cost)
				slotCost += cost
				ss.Ops++
				res.Site.Requests++
				failed := err != nil
				if failed {
					res.Failures++
				} else {
					c.cache[idx] = now.Add(hostTTL)
				}
				if misses == 0 {
					if !failed {
						res.Site.Hits++
					}
					continue
				}
				res.Authority.Requests++
				res.AuthorityFetches += misses
				ss.AuthorityFetches += misses
				switch {
				case failed:
					// reached authority, got no authoritative answer
				case stale > 0:
					res.StaleOps++
				default:
					res.Authority.Hits++
				}
			}
		}
		if ss.Ops > 0 {
			ss.MeanCost = slotCost / time.Duration(ss.Ops)
		}
		if e.hooks.AfterSlot != nil {
			probes, stale, err := e.hooks.AfterSlot(ctx, s)
			if err != nil {
				return res, fmt.Errorf("workload: fleet run: slot %d probes: %w", s, err)
			}
			res.Probes += probes
			res.StaleProbes += stale
		}
		e.clk.Advance(spec.Diurnal.SlotStep)
	}

	res.Ops = len(costs)
	for _, c := range costs {
		res.TotalSimCost += c
	}
	if res.Ops > 0 {
		res.Mean = res.TotalSimCost / time.Duration(res.Ops)
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i] < costs[j] })
	res.P50 = percentile(costs, 0.50)
	res.P99 = percentile(costs, 0.99)
	res.Host.finish()
	res.Site.finish()
	res.Authority.finish()
	res.GatewayShed = e.gatewayShed()
	return res, nil
}

// percentile reads the p-quantile from an ascending slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

// sumRegCounters totals every counter series in reg whose name starts
// with prefix (labelled series carry suffixes).
func sumRegCounters(reg *metrics.Registry, prefix string) int64 {
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, prefix) {
			total += c.Value
		}
	}
	return total
}
