package experiments

import (
	"context"
	"testing"
)

// TestRunScaleDeterministicSimSide: two full matrix runs at a tiny spec
// produce identical rows — the reproducibility contract the printed
// matrix rests on.
func TestRunScaleDeterministicSimSide(t *testing.T) {
	ctx := context.Background()
	spec := ScaleSpec{
		ClientPoints: []int{16, 48},
		Sites:        2,
		OpsPerClient: 2,
		Contexts:     3,
		Skew:         1.3,
		Seed:         7,
	}
	a, err := RunScale(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScale(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 2*3 { // points x scenarios
		t.Fatalf("row counts %d/%d, want 6", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("row %d differs between runs:\n%+v\nvs\n%+v", i, a[i], b[i])
		}
	}
}

// TestRunScaleAuthorityFetchesFlatInClients pins the matrix's load-bearing
// column at the hnsbench topology: a tenfold larger fleet costs the
// authoritative meta BIND the same 208 fetches — one per meta key per
// context per site — so authority traffic tracks sites x contexts, never
// clients.
func TestRunScaleAuthorityFetchesFlatInClients(t *testing.T) {
	spec := DefaultScaleSpec()
	spec.ClientPoints = []int{1000, 10000}
	spec.Scenarios = []string{"coldstart"}
	rows, err := RunScale(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.AuthorityFetches != 208 || r.SimFailures != 0 {
			t.Errorf("%s at %d clients: %d authority fetches, %d failures; want 208 and 0",
				r.Scenario, r.Clients, r.AuthorityFetches, r.SimFailures)
		}
	}
}
