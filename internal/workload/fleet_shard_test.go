// fleet_shard_test.go pins the sharded-meta-store axis: determinism of
// the MetaShards fleet, the shardloss scenario's observable shape, and
// the blast-radius invariant — killing one shard trips only that shard's
// breakers while its slice rides serve-stale.
package workload

import (
	"context"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
	"hns/internal/world"
)

func shardFleetSpec(clients, shards int) FleetSpec {
	return FleetSpec{
		Sites:        3,
		Clients:      clients,
		OpsPerClient: 3,
		Contexts:     4,
		Skew:         1.4,
		Seed:         1987,
		MetaShards:   shards,
	}
}

// TestFleetMetaShardsDeterministic: the sharded fleet is as reproducible
// as the unsharded one — two plain runs with MetaShards=2 agree on every
// field compared and nothing fails.
func TestFleetMetaShardsDeterministic(t *testing.T) {
	ctx := context.Background()
	spec := shardFleetSpec(18, 2)
	a, err := RunFleet(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != 0 {
		t.Fatalf("sharded fleet failed ops: %d", a.Failures)
	}
	if a.Ops != spec.Clients*spec.OpsPerClient {
		t.Fatalf("ops = %d, want %d", a.Ops, spec.Clients*spec.OpsPerClient)
	}
	if a.Ops != b.Ops || a.Failures != b.Failures ||
		a.P50 != b.P50 || a.P99 != b.P99 || a.TotalSimCost != b.TotalSimCost ||
		a.Host != b.Host || a.Site != b.Site || a.Authority != b.Authority ||
		a.AuthorityFetches != b.AuthorityFetches {
		t.Fatalf("sharded fleet not deterministic:\n  %+v\nvs\n  %+v", a, b)
	}
}

// TestFleetMetaShardsZeroIsUnsharded: MetaShards=0 must produce results
// bit-identical to a spec that never heard of sharding — the opt-in-off
// guarantee behind the frozen `hnsbench -prose scale` matrix.
func TestFleetMetaShardsZeroIsUnsharded(t *testing.T) {
	ctx := context.Background()
	plain := shardFleetSpec(18, 0)
	a, err := RunFleet(ctx, plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(ctx, FleetSpec{
		Sites: 3, Clients: 18, OpsPerClient: 3, Contexts: 4,
		Skew: 1.4, Seed: 1987,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.Failures != b.Failures ||
		a.P50 != b.P50 || a.P99 != b.P99 || a.TotalSimCost != b.TotalSimCost ||
		a.Host != b.Host || a.Site != b.Site || a.Authority != b.Authority {
		t.Fatalf("MetaShards=0 diverges from the unsharded fleet:\n  %+v\nvs\n  %+v", a, b)
	}
}

// TestScenarioShardLossShape pins the shardloss scenario's story: zero
// failures (the dead slice rides serve-stale), stale serves actually
// happen during the kill window, and the outage slot's cost stands out.
func TestScenarioShardLossShape(t *testing.T) {
	ctx := context.Background()
	res, err := RunScenario(ctx, "shardloss", shardFleetSpec(24, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures: %d, want 0 (serve-stale should carry the dead slice)", res.Failures)
	}
	if res.StaleOps == 0 {
		t.Fatal("no stale-served ops: the kill window never degraded anything")
	}
	var peak, base time.Duration
	for _, s := range res.Slots {
		if s.Ops == 0 {
			continue
		}
		if s.MeanCost > peak {
			peak = s.MeanCost
		}
		if base == 0 || s.MeanCost < base {
			base = s.MeanCost
		}
	}
	if peak <= base {
		t.Fatalf("no visible outage: peak slot mean %v vs cheapest %v", peak, base)
	}
}

// TestShardKillTripsOnlyVictimBreakers is the blast-radius invariant
// from the ISSUE: blackholing one shard at a warm site opens breakers for
// that shard's endpoint only; every other shard keeps answering fresh,
// the dead slice is served stale, and no lookup fails.
func TestShardKillTripsOnlyVictimBreakers(t *testing.T) {
	ctx := context.Background()
	clk := simtime.NewFakeClock(fleetEpoch)
	w, err := world.New(world.Config{Clock: clk, CacheMode: bind.CacheMarshalled})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const contexts = 6
	for i := 0; i < contexts; i++ {
		if _, err := w.AddSyntheticType(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := buildFleetShards(ctx, w, 3, 1987)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	const chaosName = "tcp-shardkill-chaos"
	inner, err := w.Net.Transport("tcp")
	if err != nil {
		t.Fatal(err)
	}
	plan := transport.NewPlan(1987)
	w.Net.Register(transport.NewChaos(inner, chaosName, plan))

	reg := metrics.NewRegistry()
	h, err := newShardSiteHNS(w, clk, fs.m.Members, reg, ShardSiteOptions{
		Transport: chaosName,
		StaleFor:  24 * time.Hour,
		Breakers:  true,
	})
	if err != nil {
		t.Fatal(err)
	}

	resolveAll := func(stage string) {
		t.Helper()
		for i := 0; i < contexts; i++ {
			name := names.Must(world.SyntheticContext(i), world.SyntheticHost(i))
			if _, err := h.FindNSM(ctx, name, qclass.HostAddress); err != nil {
				t.Fatalf("%s: FindNSM(%s): %v", stage, name, err)
			}
		}
	}
	resolveAll("warm")

	// Expire the warm entries, then kill the last shard: re-resolution
	// must route around it via serve-stale without a single failure.
	clk.Advance(time.Duration(core.DefaultMetaTTL+1) * time.Second)
	victim := fs.m.Members[len(fs.m.Members)-1]
	plan.Blackhole(victim.Addr)
	resolveAll("kill window")

	if stale := h.Stats().Cache.StaleServed; stale == 0 {
		t.Fatal("no stale serves during the kill window: victim's slice was not degraded-but-served")
	}
	for _, mem := range fs.m.Members {
		opens := reg.Counter(metrics.Labels("breaker_opens_total",
			"service", "meta-shard", "endpoint", mem.Addr)).Value()
		if mem.ID == victim.ID && opens == 0 {
			t.Fatalf("victim shard %s breaker never opened", mem.ID)
		}
		if mem.ID != victim.ID && opens != 0 {
			t.Fatalf("healthy shard %s breaker opened %d times: blast radius exceeded the victim",
				mem.ID, opens)
		}
	}

	// Recovery: the victim comes back, the clock passes the breaker
	// cooldown, and the whole namespace is fresh again.
	plan.Recover(victim.Addr)
	clk.Advance(41 * time.Minute)
	staleBefore := h.Stats().Cache.StaleServed
	resolveAll("recovered")
	if got := h.Stats().Cache.StaleServed; got != staleBefore {
		t.Fatalf("stale serves grew after recovery: %d -> %d", staleBefore, got)
	}
}
