package workload_test

import (
	"context"
	"testing"
	"time"

	"hns/internal/colocate"
	"hns/internal/workload"
)

// gatewayFleetSpec is a small fleet whose topology (pinned by the seed)
// contains remote-HNS sites — the ones the gateway tier fronts.
func gatewayFleetSpec() workload.FleetSpec {
	return workload.FleetSpec{
		Sites:        4,
		Clients:      32,
		OpsPerClient: 3,
		Contexts:     4,
		Skew:         1.4,
		Seed:         1987,
	}
}

// remoteSites counts the topology's across-a-process-boundary sites; the
// gateway tests are vacuous without at least one.
func remoteSites(t *testing.T, spec workload.FleetSpec) int {
	t.Helper()
	n := 0
	for _, site := range colocate.Topology(spec.Sites, spec.Clients, spec.Seed) {
		if site.Arrangement.HNSIsRemote() {
			n++
		}
	}
	if n == 0 {
		t.Fatalf("seed %d drew no remote sites; pick another seed", spec.Seed)
	}
	return n
}

func TestFleetGatewayValidate(t *testing.T) {
	bad := []workload.GatewayTier{
		{Rate: -1},
		{Burst: -1},
		{MaxInflight: -1},
		{LowWatermark: 1.5},
		{RetryAfter: -time.Second},
	}
	for i := range bad {
		spec := gatewayFleetSpec()
		spec.Gateway = &bad[i]
		if err := spec.Validate(); err == nil {
			t.Errorf("bad gateway tier %d accepted: %+v", i, bad[i])
		}
	}
	spec := gatewayFleetSpec()
	spec.Gateway = &workload.GatewayTier{Rate: 100, Burst: 200, MaxInflight: 64, LowWatermark: 0.75}
	if err := spec.Validate(); err != nil {
		t.Fatalf("good gateway tier rejected: %v", err)
	}
}

// TestFleetGatewayTransparent: with no admission limits the gateway tier
// is a pure extra hop — every op still succeeds, nothing sheds, the
// client-side host tier is untouched, and remote-site ops cost more than
// the ungated baseline (the hop is real). Two gated runs are
// identical, extending the determinism contract to the fourth tier.
func TestFleetGatewayTransparent(t *testing.T) {
	ctx := context.Background()
	spec := gatewayFleetSpec()
	remoteSites(t, spec)

	base, err := workload.RunFleet(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	gated := gatewayFleetSpec()
	gated.Gateway = &workload.GatewayTier{}
	a, err := workload.RunFleet(ctx, gated, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.RunFleet(ctx, gated, nil)
	if err != nil {
		t.Fatal(err)
	}
	fleetResultsEqual(t, "gateway", a, b)
	if a.GatewayShed != b.GatewayShed {
		t.Fatalf("gateway shed differs across identical runs: %d vs %d", a.GatewayShed, b.GatewayShed)
	}

	if a.Failures != 0 || a.GatewayShed != 0 {
		t.Fatalf("limit-free gateway: %d failures, %d shed, want 0/0", a.Failures, a.GatewayShed)
	}
	if a.Ops != base.Ops || a.Host != base.Host {
		t.Fatalf("gateway changed the client-side draw: ops %d/%d host %+v vs %+v",
			a.Ops, base.Ops, a.Host, base.Host)
	}
	if a.TotalSimCost <= base.TotalSimCost {
		t.Fatalf("gateway hop is free: gated cost %v <= baseline %v", a.TotalSimCost, base.TotalSimCost)
	}
}

// TestFleetGatewaySheds: with a starved per-client bucket the gateways
// refuse work — sheds and failures appear that the ungated fleet never
// has, and (with a backoff window outlasting the run) the run stays
// deterministic about them.
func TestFleetGatewaySheds(t *testing.T) {
	ctx := context.Background()
	spec := gatewayFleetSpec()
	remoteSites(t, spec)
	spec.Gateway = &workload.GatewayTier{
		Rate:  0.001, // bucket refills far slower than the run
		Burst: 1,     // one admitted call per gateway, then shed
		// Keep the client-side backpressure window open past the whole
		// run, so which ops fail never depends on wall time.
		RetryAfter: time.Hour,
	}

	a, err := workload.RunFleet(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.GatewayShed < 1 {
		t.Fatalf("starved gateway shed %d calls, want >= 1", a.GatewayShed)
	}
	if a.Failures == 0 {
		t.Fatal("starved gateway produced no sim failures")
	}
	if a.Failures >= a.Ops {
		t.Fatalf("every op failed (%d/%d): local sites should be unaffected", a.Failures, a.Ops)
	}

	b, err := workload.RunFleet(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.GatewayShed != b.GatewayShed {
		t.Fatalf("shed accounting not deterministic: %d/%d vs %d/%d",
			a.Failures, a.GatewayShed, b.Failures, b.GatewayShed)
	}
}
