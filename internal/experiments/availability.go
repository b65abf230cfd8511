package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/health"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
	"hns/internal/world"
)

// The availability experiment. The paper's meta-information server "must
// be distributed and replicated for the usual reasons of performance,
// availability, and scalability" — but Section 3 measures only the happy
// path. Here we make the availability claim concrete: run the Table 3.1
// FindNSM workload against a two-replica meta BIND while a chaos plan
// kills, blackholes, and degrades the replicas, and measure what the
// client actually experiences: success rate, failover cost, and how far
// serve-stale carries the service through a total outage.

// Replica and transport names used by the chaos arrangement.
const (
	availPrimary   = "tahoma:bind-hrpc"
	availSecondary = "tahoma2:bind-hrpc"
	availChaos     = "tcp-chaos"
)

// Knobs of the chaos run. Every op first advances the fake clock past the
// meta TTL so each FindNSM re-resolves all six mapping steps against the
// (possibly dead) meta replicas — the hardest case for availability.
const (
	availThreshold = 3                // breaker opens after 3 consecutive failures
	availCooldown  = 40 * time.Minute // breaker cooldown (≈4 ops at one op per TTL)
	availBudget    = time.Second      // per-call retransmission budget
	availGrace     = 24 * time.Hour   // serve-stale ceiling
)

// AvailPhase is one segment of the chaos schedule.
type AvailPhase struct {
	// Name identifies the fault condition ("baseline", "flaky-primary",
	// "primary-down", "recovered", "blackout", "restored").
	Name string
	// Ops and Failures count FindNSM calls in the phase.
	Ops, Failures int
	// MeanCost is the mean simulated cost per op.
	MeanCost time.Duration
	// StaleServed counts meta lookups answered from expired cache
	// entries during the phase.
	StaleServed int64
}

// AvailabilityResult is what the chaos run reports.
type AvailabilityResult struct {
	// Phases is the schedule in order.
	Phases []AvailPhase
	// Ops and Failures total the whole run; SuccessRate = 1 - Failures/Ops.
	Ops, Failures int
	SuccessRate   float64
	// Baseline is the mean per-op cost with both replicas healthy.
	Baseline time.Duration
	// FailoverExtra is the extra cost of the first op after the primary
	// went silent: the retransmission waits spent discovering the
	// failure before the breaker opens.
	FailoverExtra time.Duration
	// StaleServed totals the meta lookups served from expired entries
	// while every replica was unreachable.
	StaleServed int64
	// BreakerOpens, Probes, and Failovers are the health-layer counters:
	// open transitions, half-open probes, and calls answered by a
	// non-primary replica.
	BreakerOpens int64
	Probes       int64
	Failovers    int64
}

// RunAvailability executes the chaos schedule against w. The world must
// have been built with clk as its clock; seed drives the fault plan's
// randomness, so a given (world, seed) pair replays identically.
func RunAvailability(ctx context.Context, w *world.World, clk *simtime.FakeClock, seed int64) (AvailabilityResult, error) {
	var res AvailabilityResult

	// A second meta replica: a standard BIND secondary that mirrors the
	// meta zone by zone transfer, serving the identical HRPC interface.
	sec, err := bind.NewSecondary(w.MetaHRPCClient(), world.MetaZone, "tahoma2")
	if err != nil {
		return res, err
	}
	if _, err := sec.Refresh(ctx); err != nil {
		return res, err
	}
	ln, _, err := sec.Server().ServeHRPC(w.Net, availSecondary)
	if err != nil {
		return res, err
	}
	defer ln.Close()

	// The chaos transport: wraps the simulated "tcp" the Raw suite uses,
	// so faults apply to meta traffic and nothing else. Endpoints are
	// listened on the inner transport, so recovery needs no re-binding.
	inner, err := w.Net.Transport("tcp")
	if err != nil {
		return res, err
	}
	plan := transport.NewPlan(seed)
	w.Net.Register(transport.NewChaos(inner, availChaos, plan))

	// The client under test: replica-aware, health-gated, budgeted, and
	// measured on its own registry.
	reg := metrics.NewRegistry()
	mc := hrpc.NewClient(w.Net)
	mc.FreshConn = true // Raw suite discipline: dial per call
	mc.Metrics = reg
	mc.Policy = hrpc.RetryPolicy{Budget: availBudget}
	mc.Health = health.Config{
		Threshold: availThreshold,
		Cooldown:  availCooldown,
		Clock:     clk,
		Metrics:   reg,
		Service:   "meta-bind",
	}
	mc.SetReplicas(availPrimary, availSecondary)

	mb := w.MetaHRPC
	mb.Transport = availChaos
	h := core.New(bind.NewHRPCClient(mc, mb), core.Config{
		MetaZone:   world.MetaZone,
		CacheMode:  bind.CacheMarshalled,
		Clock:      clk,
		ServeStale: availGrace,
		RPC:        w.RPC,
		Metrics:    reg,
	})
	h.LinkHostResolver(world.NSBind, w.BindHostNSM)
	h.LinkHostResolver(world.NSCH, w.CHHostNSM)

	name := world.DesiredServiceName()
	op := func() (time.Duration, error) {
		// Step past the meta TTL: every op re-resolves all six mapping
		// lookups, so every op exercises the replicas.
		clk.Advance(time.Duration(core.DefaultMetaTTL+1) * time.Second)
		return simtime.Measure(ctx, func(ctx context.Context) error {
			_, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
			return err
		})
	}
	var opCosts []time.Duration
	phase := func(name string, ops int) AvailPhase {
		p := AvailPhase{Name: name, Ops: ops}
		before := h.Stats().Cache.StaleServed
		var total time.Duration
		opCosts = opCosts[:0]
		for i := 0; i < ops; i++ {
			cost, err := op()
			if err != nil {
				p.Failures++
			}
			total += cost
			opCosts = append(opCosts, cost)
		}
		p.MeanCost = total / time.Duration(ops)
		p.StaleServed = h.Stats().Cache.StaleServed - before
		res.Phases = append(res.Phases, p)
		res.Ops += p.Ops
		res.Failures += p.Failures
		return p
	}

	// Warm the caches once (not counted: it is setup, not workload).
	if _, err := op(); err != nil {
		return res, fmt.Errorf("availability: warmup: %w", err)
	}

	// Phase 1 — baseline: both replicas healthy.
	res.Baseline = phase("baseline", 10).MeanCost

	// Phase 2 — flaky primary: seeded 30% message loss. Retransmission
	// and failover absorb it; the workload must not notice.
	plan.SetLossRate(availPrimary, 0.3)
	phase("flaky-primary", 8)
	plan.SetLossRate(availPrimary, 0)

	// Let any breaker the loss burst opened close again before the next
	// fault: past the cooldown, one (uncounted) op probes the primary
	// back to Closed, so phase 3 measures failover from a clean slate.
	clk.Advance(availCooldown)
	if _, err := op(); err != nil {
		return res, fmt.Errorf("availability: settle: %w", err)
	}

	// Phase 3 — primary silent (blackhole: requests vanish, the
	// worst case for a timeout-based client). The first op pays the
	// retransmission waits until the breaker opens; later ops fail over
	// for free, with an occasional half-open probe when the cooldown
	// elapses.
	plan.Blackhole(availPrimary)
	phase("primary-down", 10)
	res.FailoverExtra = opCosts[0] - res.Baseline

	// Phase 4 — primary recovers. After the cooldown a half-open probe
	// discovers it and the breaker closes; traffic returns to the
	// primary.
	plan.Recover(availPrimary)
	clk.Advance(availCooldown)
	phase("recovered", 5)

	// Phase 5 — total blackout: both replicas silent. Serve-stale is the
	// only thing keeping FindNSM answering: expired meta entries within
	// the grace are served, flagged, and counted.
	plan.Blackhole(availPrimary)
	plan.Blackhole(availSecondary)
	res.StaleServed = phase("blackout", 8).StaleServed

	// Phase 6 — full recovery.
	plan.Recover(availPrimary)
	plan.Recover(availSecondary)
	clk.Advance(availCooldown)
	phase("restored", 5)

	res.SuccessRate = 1 - float64(res.Failures)/float64(res.Ops)
	res.BreakerOpens = sumCounters(reg, "breaker_opens_total")
	res.Probes = sumCounters(reg, "breaker_probes_total")
	res.Failovers = sumCounters(reg, "hrpc_client_failovers_total")
	return res, nil
}

// sumCounters totals every counter series whose name starts with prefix
// (the per-endpoint breaker series carry labels).
func sumCounters(reg *metrics.Registry, prefix string) int64 {
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, prefix) {
			total += c.Value
		}
	}
	return total
}
