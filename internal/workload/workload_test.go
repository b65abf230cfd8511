package workload_test

import (
	"context"
	"testing"

	"hns/internal/workload"
	"hns/internal/world"
)

// newWorkloadWorld builds a world with n synthetic contexts integrated.
func newWorkloadWorld(t *testing.T, n int) *world.World {
	t.Helper()
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if _, err := w.AddSyntheticType(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestSpecValidate(t *testing.T) {
	bad := []workload.Spec{
		{Clients: 0, OpsPerClient: 1, Contexts: 1},
		{Clients: 1, OpsPerClient: 0, Contexts: 1},
		{Clients: 1, OpsPerClient: 1, Contexts: 0},
		{Clients: 1, OpsPerClient: 1, Contexts: 1, Skew: 0.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	good := workload.Spec{Clients: 1, OpsPerClient: 1, Contexts: 1, Skew: 1.2}
	if err := good.Validate(); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	w := newWorkloadWorld(t, 4)
	spec := workload.Spec{Clients: 3, OpsPerClient: 10, Contexts: 4, Skew: 1.5, Seed: 42}
	ctx := context.Background()
	// The first run warms the (shared, by design) HostAddress NSM caches;
	// subsequent runs start from identical state and must be identical.
	warmup, err := workload.Run(ctx, w, spec, workload.LocalHNS)
	if err != nil {
		t.Fatal(err)
	}
	a, err := workload.Run(ctx, w, spec, workload.LocalHNS)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.Run(ctx, w, spec, workload.LocalHNS)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCost != b.TotalCost || a.HitRate != b.HitRate {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
	if a.Ops != 30 || warmup.Ops != 30 {
		t.Fatalf("Ops = %d/%d", a.Ops, warmup.Ops)
	}
	// The draw itself is deterministic: hit rates match across all runs.
	if warmup.HitRate != a.HitRate {
		t.Fatalf("hit rates differ: %.3f vs %.3f", warmup.HitRate, a.HitRate)
	}
}

// TestSharedCacheWarmsFaster is the heart of the experiment: with many
// clients each issuing few operations, a shared remote HNS achieves a much
// higher hit rate than per-client caches (everyone benefits from everyone
// else's misses) — equation (1)'s q, realised.
func TestSharedCacheWarmsFaster(t *testing.T) {
	w := newWorkloadWorld(t, 6)
	spec := workload.Spec{Clients: 12, OpsPerClient: 3, Contexts: 6, Skew: 1.3, Seed: 7}
	local, shared, err := workload.Compare(context.Background(), w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if shared.HitRate <= local.HitRate {
		t.Fatalf("shared hit rate %.2f not above local %.2f", shared.HitRate, local.HitRate)
	}
	// With this cold-start-dominated population the hit-rate edge exceeds
	// the remote-call tax: the shared placement wins outright.
	if shared.MeanOpCost >= local.MeanOpCost {
		t.Fatalf("shared mean %v not below local %v (hit rates %.2f vs %.2f)",
			shared.MeanOpCost, local.MeanOpCost, shared.HitRate, local.HitRate)
	}
}

// TestLocalWinsWhenClientsAreWarm is the flip side: long-running clients
// warm their own caches, the shared cache's extra hit rate shrinks below
// the break-even, and local linking wins — "neither of these increments
// leads to a clear cut decision".
func TestLocalWinsWhenClientsAreWarm(t *testing.T) {
	w := newWorkloadWorld(t, 4)
	spec := workload.Spec{Clients: 3, OpsPerClient: 80, Contexts: 4, Skew: 1.5, Seed: 11}
	local, shared, err := workload.Compare(context.Background(), w, spec)
	if err != nil {
		t.Fatal(err)
	}
	if local.MeanOpCost >= shared.MeanOpCost {
		t.Fatalf("local mean %v not below shared %v (hit rates %.2f vs %.2f)",
			local.MeanOpCost, shared.MeanOpCost, local.HitRate, shared.HitRate)
	}
	// Both caches end up warm; the hit rates must be close.
	if shared.HitRate-local.HitRate > 0.2 {
		t.Fatalf("hit-rate gap %.2f too large for warm clients", shared.HitRate-local.HitRate)
	}
}

func TestUniformVsSkewed(t *testing.T) {
	w := newWorkloadWorld(t, 8)
	ctx := context.Background()
	uniform := workload.Spec{Clients: 4, OpsPerClient: 12, Contexts: 8, Skew: 0, Seed: 3}
	skewed := uniform
	skewed.Skew = 2.5
	u, err := workload.Run(ctx, w, uniform, workload.LocalHNS)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.Run(ctx, w, skewed, workload.LocalHNS)
	if err != nil {
		t.Fatal(err)
	}
	// Locality of reference pays: the skewed population hits more.
	if s.HitRate <= u.HitRate {
		t.Fatalf("skewed hit rate %.2f not above uniform %.2f", s.HitRate, u.HitRate)
	}
	if s.MeanOpCost >= u.MeanOpCost {
		t.Fatalf("skewed mean %v not below uniform %v", s.MeanOpCost, u.MeanOpCost)
	}
}
