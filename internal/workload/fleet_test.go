package workload_test

import (
	"context"
	"testing"
	"time"

	"hns/internal/workload"
)

func tinyFleetSpec(clients int) workload.FleetSpec {
	return workload.FleetSpec{
		Sites:        3,
		Clients:      clients,
		OpsPerClient: 3,
		Contexts:     4,
		Skew:         1.4,
		Seed:         1987,
	}
}

func TestFleetSpecValidate(t *testing.T) {
	good := tinyFleetSpec(12)
	if err := good.Validate(); err != nil {
		t.Fatalf("good fleet spec rejected: %v", err)
	}
	bad := []workload.FleetSpec{
		func() workload.FleetSpec { s := tinyFleetSpec(12); s.Sites = 0; return s }(),
		func() workload.FleetSpec { s := tinyFleetSpec(0); return s }(),
		func() workload.FleetSpec { s := tinyFleetSpec(12); s.HostTTL = -time.Second; return s }(),
		func() workload.FleetSpec { s := tinyFleetSpec(12); s.Diurnal.Amplitude = 1.5; return s }(),
		func() workload.FleetSpec { s := tinyFleetSpec(12); s.Diurnal.Phase = 1; return s }(),
		func() workload.FleetSpec { s := tinyFleetSpec(12); s.Diurnal.Slots = -1; return s }(),
		func() workload.FleetSpec { s := tinyFleetSpec(12); s.Diurnal.SlotStep = -time.Second; return s }(),
		func() workload.FleetSpec { s := tinyFleetSpec(12); s.Skew = 0.5; return s }(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad fleet spec %d accepted: %+v", i, s)
		}
	}
}

// fleetResultsEqual compares two fleet results field by field; every
// field is deterministic per spec.
func fleetResultsEqual(t *testing.T, label string, a, b workload.FleetResult) {
	t.Helper()
	if a.Ops != b.Ops || a.Failures != b.Failures {
		t.Fatalf("%s: ops/failures differ: %d/%d vs %d/%d", label, a.Ops, a.Failures, b.Ops, b.Failures)
	}
	if a.P50 != b.P50 || a.P99 != b.P99 || a.Mean != b.Mean || a.TotalSimCost != b.TotalSimCost {
		t.Fatalf("%s: latency summary differs: p50 %v/%v p99 %v/%v total %v/%v",
			label, a.P50, b.P50, a.P99, b.P99, a.TotalSimCost, b.TotalSimCost)
	}
	if a.Host != b.Host || a.Site != b.Site || a.Authority != b.Authority {
		t.Fatalf("%s: tier stats differ:\n  %+v %+v %+v\nvs\n  %+v %+v %+v",
			label, a.Host, a.Site, a.Authority, b.Host, b.Site, b.Authority)
	}
	if a.AuthorityFetches != b.AuthorityFetches || a.StaleOps != b.StaleOps {
		t.Fatalf("%s: authority fetches/stale differ: %d/%d vs %d/%d",
			label, a.AuthorityFetches, a.StaleOps, b.AuthorityFetches, b.StaleOps)
	}
	if a.Probes != b.Probes || a.StaleProbes != b.StaleProbes {
		t.Fatalf("%s: probes differ: %d/%d stale vs %d/%d stale",
			label, a.Probes, a.StaleProbes, b.Probes, b.StaleProbes)
	}
	if len(a.Slots) != len(b.Slots) {
		t.Fatalf("%s: slot counts differ: %d vs %d", label, len(a.Slots), len(b.Slots))
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			t.Fatalf("%s: slot %d differs: %+v vs %+v", label, i, a.Slots[i], b.Slots[i])
		}
	}
}

// TestScenarioDeterministic is the seeding contract: for every named
// scenario, two runs with the same spec produce identical numbers. One
// tiny config per scenario — this is also the smoke tier.
func TestScenarioDeterministic(t *testing.T) {
	ctx := context.Background()
	for _, sc := range workload.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			spec := tinyFleetSpec(24)
			a, err := workload.RunScenario(ctx, sc.Name, spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := workload.RunScenario(ctx, sc.Name, spec)
			if err != nil {
				t.Fatal(err)
			}
			fleetResultsEqual(t, sc.Name, a, b)

			if a.Scenario != sc.Name {
				t.Fatalf("result names scenario %q, want %q", a.Scenario, sc.Name)
			}
			if a.Ops != spec.Clients*spec.OpsPerClient {
				t.Fatalf("ops = %d, want %d", a.Ops, spec.Clients*spec.OpsPerClient)
			}
			if a.Failures != 0 {
				t.Fatalf("%d sim failures in %s (failover/serve-stale should absorb faults)", a.Failures, sc.Name)
			}
			for _, tier := range []workload.TierStats{a.Host, a.Site, a.Authority} {
				if tier.HitRatio < 0 || tier.HitRatio > 1 || tier.Hits > tier.Requests {
					t.Fatalf("tier stats out of range: %+v", tier)
				}
			}
			if a.Host.Requests != int64(a.Ops) {
				t.Fatalf("host tier saw %d requests, want every op (%d)", a.Host.Requests, a.Ops)
			}
		})
	}
}

// TestScenarioSeedChangesDraw pins that the seed actually reaches the
// draws: different seeds give different sim-side results.
func TestScenarioSeedChangesDraw(t *testing.T) {
	ctx := context.Background()
	a, err := workload.RunScenario(ctx, "coldstart", tinyFleetSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	spec := tinyFleetSpec(24)
	spec.Seed = 7
	b, err := workload.RunScenario(ctx, "coldstart", spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalSimCost == b.TotalSimCost && a.AuthorityFetches == b.AuthorityFetches {
		t.Fatal("different seeds produced identical sim results")
	}
}

func TestFindScenarioUnknown(t *testing.T) {
	if _, err := workload.FindScenario("nosuch"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := workload.RunScenario(context.Background(), "nosuch", tinyFleetSpec(8)); err == nil {
		t.Fatal("RunScenario accepted an unknown scenario")
	}
}

// TestScenarioStressFlashcrowd is the larger tier (run with -count=3
// by scripts/smoke.sh): flashcrowd at 256 simulated clients, asserting
// the stampede invariant — cold-start fetches scale with tiers and
// contexts, never with clients.
func TestScenarioStressFlashcrowd(t *testing.T) {
	ctx := context.Background()
	spec := workload.FleetSpec{
		Sites:        4,
		Clients:      256,
		OpsPerClient: 3,
		Contexts:     6,
		Skew:         1.4,
		Seed:         1987,
	}
	res, err := workload.RunScenario(ctx, "flashcrowd", spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 256*3 {
		t.Fatalf("ops = %d, want %d", res.Ops, 256*3)
	}

	// The stampede invariant: effective authority fetches are bounded by
	// (meta keys per context) x contexts x sites — the cache hierarchy's
	// shape — and must stay far below the client count. 256 clients
	// asking for the same cold context cause one fetch per meta key per
	// site, not 256.
	bound := int64(spec.Sites * (4*spec.Contexts + 8))
	if res.AuthorityFetches > bound {
		t.Fatalf("sim authority fetches %d exceed the tier bound %d", res.AuthorityFetches, bound)
	}
	if res.AuthorityFetches >= int64(spec.Clients) {
		t.Fatalf("sim authority fetches %d scale with clients (%d), not tiers", res.AuthorityFetches, spec.Clients)
	}

	if res.Failures != 0 {
		t.Fatalf("failures: %d, want 0", res.Failures)
	}

	// The flash is real: the second half's slots re-fetch the inverted
	// context, so post-flash slots carry authority fetches.
	var postFlash int64
	for _, s := range res.Slots[len(res.Slots)/2:] {
		postFlash += s.AuthorityFetches
	}
	if postFlash == 0 {
		t.Fatal("no authority fetches after the flash slot: inversion did not happen")
	}
}

// TestScenarioPrimaryLossShape pins the chaos scenario's observable
// shape: the outage slot costs more than the baseline slots, failover
// keeps every op succeeding, and per-tier accounting stays coherent.
func TestScenarioPrimaryLossShape(t *testing.T) {
	ctx := context.Background()
	spec := tinyFleetSpec(24)
	res, err := workload.RunScenario(ctx, "primaryloss", spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures: %d, want 0 (secondary should carry the fleet)", res.Failures)
	}
	// SlotStep exceeds the meta TTL, so each slot re-resolves: authority
	// traffic in every non-empty slot.
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
	// The blackholed slot pays retransmission budgets before the site
	// breakers open: its mean op cost must stand out above the cheapest
	// healthy slot.
	if peak <= base {
		t.Fatalf("no visible outage: peak slot mean %v vs cheapest %v", peak, base)
	}
	if res.P99 <= res.P50 {
		t.Fatalf("p99 %v not above p50 %v under an outage", res.P99, res.P50)
	}
}

// TestHotupdatePushVersusPoll is the hotupdate scenario's contract: under
// identical churn, the polling fleet serves stale answers (probes catch
// sites handing back pre-churn data within the TTL) while the subscribed
// fleet serves none — every probe lands after the NOTIFY invalidation.
// Both arms are deterministic.
func TestHotupdatePushVersusPoll(t *testing.T) {
	ctx := context.Background()
	spec := tinyFleetSpec(16)
	spec.Sites = 2

	poll, err := workload.RunScenario(ctx, "hotupdate", spec)
	if err != nil {
		t.Fatal(err)
	}
	pushSpec := spec
	pushSpec.Push = true
	push, err := workload.RunScenario(ctx, "hotupdate", pushSpec)
	if err != nil {
		t.Fatal(err)
	}
	push2, err := workload.RunScenario(ctx, "hotupdate", pushSpec)
	if err != nil {
		t.Fatal(err)
	}
	fleetResultsEqual(t, "hotupdate/push", push, push2)

	if poll.Probes == 0 || poll.Probes != push.Probes {
		t.Fatalf("probe counts: poll %d, push %d (want equal and nonzero)", poll.Probes, push.Probes)
	}
	// The polling fleet's slot step (1 min) sits far inside the 600 s meta
	// TTL: the probe context flips every slot, so all but the first fresh
	// fetch per site serve stale until expiry.
	if poll.StaleProbes == 0 {
		t.Fatalf("polling fleet reported no stale probes in %d (churn invisible to the probe?)", poll.Probes)
	}
	if push.StaleProbes != 0 {
		t.Fatalf("subscribed fleet served %d stale probes of %d (push invalidation missed churn)",
			push.StaleProbes, push.Probes)
	}
	// Push converts staleness into invalidation-driven refetches, so the
	// subscribed fleet must reach the authority at least as often as the
	// one serving stale hits.
	if push.AuthorityFetches < poll.AuthorityFetches {
		t.Fatalf("push fleet fetched %d < poll fleet %d (subscription should refetch churned entries)",
			push.AuthorityFetches, poll.AuthorityFetches)
	}
}
