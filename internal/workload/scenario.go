// scenario.go is the named-scenario layer over the fleet engine: seeded,
// replayable worst-case shapes every later scaling PR is measured
// against. Each scenario adjusts the spec (slots, diurnal shape) and may
// install hooks (fault plans, popularity remaps) — it never changes how
// an op is priced, so all scenario numbers compose the same calibrated
// primitives as Tables 3.1/3.2.
package workload

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
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
	"hns/internal/world"
)

// Scenario is one named, seeded fleet scenario.
type Scenario struct {
	Name        string
	Description string

	// prepare normalizes the caller's spec into the scenario's shape.
	prepare func(FleetSpec) FleetSpec
	// setup builds the per-pass hooks; nil for hook-less scenarios.
	setup func(FleetSpec) FleetSetup
}

// Replica and transport names for the primaryloss chaos arrangement.
const (
	fleetPrimary   = "tahoma:bind-hrpc"
	fleetSecondary = "tahoma2:bind-hrpc"
	fleetChaos     = "tcp-fleet-chaos"
)

// Scenarios lists the named scenarios in canonical order.
func Scenarios() []Scenario {
	return []Scenario{coldstartScenario(), flashcrowdScenario(), primarylossScenario(),
		hotupdateScenario()}
}

// FindScenario resolves a scenario by name.
func FindScenario(name string) (Scenario, error) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q", name)
}

// RunScenario prepares spec for the named scenario and executes the
// two-pass fleet run. Sim-side results are identical across runs with the
// same spec.
func RunScenario(ctx context.Context, name string, spec FleetSpec) (FleetResult, error) {
	sc, err := FindScenario(name)
	if err != nil {
		return FleetResult{}, err
	}
	if sc.prepare != nil {
		spec = sc.prepare(spec)
	}
	var setup FleetSetup
	if sc.setup != nil {
		setup = sc.setup(spec)
	}
	res, err := RunFleet(ctx, spec, setup)
	res.Scenario = sc.Name
	return res, err
}

// coldstart: empty caches and the full fleet arriving in one slot — the
// stampede case. Worlds are built fresh per pass, so every cache starts
// empty by construction; forcing a single flat slot makes every client's
// first op land together, which is what the singleflight/coalesce
// counters measure.
func coldstartScenario() Scenario {
	return Scenario{
		Name:        "coldstart",
		Description: "empty caches + full fleet arrival; stampede measured via coalesce counters",
		prepare: func(s FleetSpec) FleetSpec {
			s.Diurnal = Diurnal{} // one flat slot: everyone at once
			return s
		},
	}
}

// flashcrowd: a sudden popularity inversion on one context. Before the
// flash slot the coldest context (rank Contexts-1) draws fold into the
// hottest (rank 0), so rank Contexts-1 is untouched — no cache anywhere
// holds it. From the flash slot on, hot and cold swap: the bulk of the
// fleet's traffic lands on the unseen context everywhere at once.
func flashcrowdScenario() Scenario {
	return Scenario{
		Name:        "flashcrowd",
		Description: "sudden popularity inversion on one context at the flash slot",
		prepare: func(s FleetSpec) FleetSpec {
			if s.Diurnal.Slots < 4 {
				s.Diurnal.Slots = 6
			}
			if s.Skew == 0 {
				s.Skew = 1.3 // an inversion needs popularity to invert
			}
			return s
		},
		setup: func(spec FleetSpec) FleetSetup {
			flashAt := spec.Diurnal.slots() / 2
			hot, cold := 0, spec.Contexts-1
			return func(ctx context.Context, w *world.World, clk *simtime.FakeClock) (FleetHooks, error) {
				return FleetHooks{
					Remap: func(idx, slot int) int {
						if hot == cold {
							return idx
						}
						if slot < flashAt {
							if idx == cold {
								return hot
							}
							return idx
						}
						switch idx {
						case hot:
							return cold
						case cold:
							return hot
						}
						return idx
					},
				}, nil
			}
		},
	}
}

// primaryloss: the meta primary is blackholed at the diurnal peak, with a
// standard BIND secondary mirroring the meta zone (the PR 3 availability
// arrangement, fleet-sized). Slot steps exceed the meta TTL so every slot
// re-resolves against the (possibly dead) replicas; each site's hnsd
// carries its own breakers, budgeted retries, and serve-stale grace, so
// the fleet discovers the failure once per site, not once per client.
func primarylossScenario() Scenario {
	return Scenario{
		Name:        "primaryloss",
		Description: "meta primary blackholed at peak load; failover + breakers carry the fleet",
		prepare: func(s FleetSpec) FleetSpec {
			if s.Diurnal.Slots < 4 {
				s.Diurnal.Slots = 6
			}
			if s.Diurnal.Amplitude == 0 {
				s.Diurnal.Amplitude = 0.6
			}
			if step := time.Duration(core.DefaultMetaTTL+1) * time.Second; s.Diurnal.SlotStep < step {
				s.Diurnal.SlotStep = step
			}
			return s
		},
		setup: func(spec FleetSpec) FleetSetup {
			peak := peakSlot(spec.Diurnal)
			recoverAt := peak + 2
			return func(ctx context.Context, w *world.World, clk *simtime.FakeClock) (FleetHooks, error) {
				// The second meta replica: a BIND secondary that mirrors
				// the (fully registered) meta zone by zone transfer.
				sec, err := bind.NewSecondary(w.MetaHRPCClient(), world.MetaZone, "tahoma2")
				if err != nil {
					return FleetHooks{}, err
				}
				if _, err := sec.Refresh(ctx); err != nil {
					return FleetHooks{}, err
				}
				ln, _, err := sec.Server().ServeHRPC(w.Net, fleetSecondary)
				if err != nil {
					return FleetHooks{}, err
				}

				// Chaos wraps the simulated tcp, so faults hit meta
				// traffic and nothing else.
				inner, err := w.Net.Transport("tcp")
				if err != nil {
					ln.Close()
					return FleetHooks{}, err
				}
				plan := transport.NewPlan(spec.Seed)
				w.Net.Register(transport.NewChaos(inner, fleetChaos, plan))

				return FleetHooks{
					Close: func() { ln.Close() },
					NewSiteHNS: func(reg *metrics.Registry) *core.HNS {
						mc := hrpc.NewClient(w.Net)
						mc.FreshConn = true // Raw suite discipline: dial per call
						mc.Metrics = reg
						mc.Policy = hrpc.RetryPolicy{Budget: time.Second}
						mc.Health = health.Config{
							Threshold: 3,
							Cooldown:  40 * time.Minute,
							Clock:     clk,
							Metrics:   reg,
							Service:   "meta-bind",
						}
						mc.SetReplicas(fleetPrimary, fleetSecondary)
						mb := w.MetaHRPC
						mb.Transport = fleetChaos
						h := core.New(bind.NewHRPCClient(mc, mb), core.Config{
							MetaZone:   world.MetaZone,
							CacheMode:  bind.CacheMarshalled,
							Clock:      clk,
							ServeStale: 24 * time.Hour,
							RPC:        w.RPC,
							Metrics:    reg,
						})
						h.LinkHostResolver(world.NSBind, w.BindHostNSM)
						h.LinkHostResolver(world.NSCH, w.CHHostNSM)
						return h
					},
					BeforeSlot: func(slot int) {
						switch slot {
						case peak:
							plan.Blackhole(fleetPrimary)
						case recoverAt:
							plan.Recover(fleetPrimary)
						}
					},
				}, nil
			}
		},
	}
}

// hotupdate: sustained dynamic-update churn against a warm fleet. Every
// slot rewrites ChurnPerSlot meta records (serial bumps through the
// dynamic-update interface) while the fleet keeps resolving; slot steps
// sit well inside the meta TTL, so nothing ages out — whatever freshness
// the fleet has comes from invalidation, not expiry. With Push off the
// sites poll: churned entries serve stale until their TTL runs down,
// which the per-slot probe counts. With Push on every site subscribes to
// the meta bindd's push plane, so the same churn lands as NOTIFY
// invalidations and the probes come back fresh.
//
// The probe uses two extra synthetic types the op streams never draw:
// each slot flips a probe context between their name services, so a
// stale site is caught red-handed by which NSM it hands back. Probes run
// through hooks.AfterSlot on every site, outside the op accounting.
func hotupdateScenario() Scenario {
	return Scenario{
		Name:        "hotupdate",
		Description: "sustained meta churn each slot; push invalidation vs TTL staleness, counted by probes",
		prepare: func(s FleetSpec) FleetSpec {
			if s.Diurnal.Slots < 4 {
				s.Diurnal.Slots = 12
			}
			if s.Diurnal.SlotStep <= 0 {
				// Well inside the 600 s meta TTL: staleness, not expiry,
				// is on trial.
				s.Diurnal.SlotStep = time.Minute
			}
			if s.ChurnPerSlot <= 0 {
				s.ChurnPerSlot = 1 + s.Contexts/8
			}
			// The site meta-cache is the tier under test; a host-tier hit
			// would hide it.
			s.HostTTL = time.Nanosecond
			return s
		},
		setup: func(spec FleetSpec) FleetSetup {
			probeA, probeB := spec.Contexts, spec.Contexts+1
			return func(ctx context.Context, w *world.World, clk *simtime.FakeClock) (FleetHooks, error) {
				// Scenario upkeep (registrations, churn, probes) is priced
				// to nobody.
				ctx = simtime.WithMeter(ctx, simtime.NewMeter())
				for _, i := range []int{probeA, probeB} {
					if _, err := w.AddSyntheticType(ctx, i); err != nil {
						return FleetHooks{}, err
					}
				}
				if spec.Push {
					w.MetaServer.EnablePush(0)
				}
				var sites []*core.HNS
				probeNS := probeA
				probeName := names.Must(world.SyntheticContext(probeA), world.SyntheticHost(probeA))
				return FleetHooks{
					NewSiteHNS: func(reg *metrics.Registry) *core.HNS {
						h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled, Metrics: reg})
						if spec.Push && !h.SubscribeMeta() {
							panic("workload: hotupdate: site meta client cannot subscribe")
						}
						sites = append(sites, h)
						return h
					},
					BeforeSlot: func(slot int) {
						// Rewrite the slot's churn set (same values — the
						// serial bumps and NOTIFYs are the point) and flip
						// the probe context's name service.
						for j := 0; j < spec.ChurnPerSlot; j++ {
							i := (slot*spec.ChurnPerSlot + j) % spec.Contexts
							if err := w.HNS.RegisterContext(ctx, world.SyntheticContext(i), world.SyntheticNS(i)); err != nil {
								panic(fmt.Sprintf("workload: hotupdate churn: %v", err))
							}
						}
						probeNS = probeA
						if slot%2 == 1 {
							probeNS = probeB
						}
						// The flip changes the record's data, and Add on a
						// changed value accumulates (a context may hold
						// several services): remove the old mapping first so
						// the probe context points at exactly one NS.
						if err := w.HNS.UnregisterContext(ctx, world.SyntheticContext(probeA)); err != nil {
							panic(fmt.Sprintf("workload: hotupdate probe unregister: %v", err))
						}
						if err := w.HNS.RegisterContext(ctx, world.SyntheticContext(probeA), world.SyntheticNS(probeNS)); err != nil {
							panic(fmt.Sprintf("workload: hotupdate probe flip: %v", err))
						}
						if spec.Push {
							// The pass is deterministic only once every
							// site has fully applied the slot's
							// invalidations (LastSerial is a processed
							// watermark).
							waitFleetPush(w, sites)
						}
					},
					AfterSlot: func(ctx context.Context, slot int) (probes, stale int64, err error) {
						ctx = simtime.WithMeter(ctx, simtime.NewMeter())
						want := fmt.Sprintf(":nsm-type%d", probeNS)
						for _, h := range sites {
							b, err := h.FindNSM(ctx, probeName, qclass.HostAddress)
							if err != nil {
								return probes, stale, err
							}
							probes++
							if !strings.HasSuffix(b.Addr, want) {
								stale++
							}
						}
						return probes, stale, nil
					},
					Close: func() {
						for _, h := range sites {
							h.UnsubscribeMeta()
						}
					},
				}, nil
			}
		},
	}
}

// waitFleetPush blocks until every subscribed site has fully processed
// the meta zone's newest serial — after it returns, all invalidations
// from the updates just applied have landed in the site caches.
func waitFleetPush(w *world.World, sites []*core.HNS) {
	target := w.MetaServer.Zone(world.MetaZone).Serial()
	const stalled = "workload: hotupdate: push subscription stalled (degraded or 10s without catching up)"
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for _, h := range sites {
		sub := h.MetaSubscription()
		if sub == nil {
			continue
		}
		for changed := sub.Changed(); sub.LastSerial() < target; changed = sub.Changed() {
			if sub.Degraded() {
				panic(stalled)
			}
			select {
			case <-changed:
			case <-deadline.C:
				panic(stalled)
			}
		}
	}
}
