package regbaseline

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/simtime"
	"hns/internal/world"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sampleBinding(i int) hrpc.Binding {
	return hrpc.SuiteSunRPC.Bind("fiji", fmt.Sprintf("fiji:svc-%d", i), uint32(400000+i), 1)
}

// populate fills the registry with n entries, the target last (worst case,
// but every import parses the whole file anyway).
func populate(r *FileRegistry, n int) {
	for i := 0; i < n-1; i++ {
		r.Add(FileEntry{Service: fmt.Sprintf("svc-%d", i), Host: "fiji", Binding: sampleBinding(i)})
	}
	r.Add(FileEntry{Service: "desired", Host: "fiji", Binding: sampleBinding(n)})
}

func TestFileRegistryImport(t *testing.T) {
	r := NewFileRegistry()
	populate(r, 10)
	b, err := r.Import(context.Background(), "desired", "fiji")
	if err != nil {
		t.Fatal(err)
	}
	if b != sampleBinding(10) {
		t.Fatalf("Import = %v", b)
	}
	if _, err := r.Import(context.Background(), "ghost", "fiji"); err == nil {
		t.Fatal("missing entry imported")
	}
}

// TestFileRegistryCostAnchor pins the paper's 200 ms figure at the
// prototype-era scale (~200 registered services).
func TestFileRegistryCostAnchor(t *testing.T) {
	r := NewFileRegistry()
	populate(r, 200)
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := r.Import(ctx, "desired", "fiji")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ms(cost); got < 180 || got > 220 {
		t.Fatalf("file-based binding = %.1f ms, want ≈200 ms", got)
	}
}

func TestFileRegistryCostGrowsWithEntries(t *testing.T) {
	// The structural weakness: binding cost scales with total registered
	// data, unlike the HNS whose load "is naturally distributed among the
	// subsystems".
	measure := func(n int) time.Duration {
		r := NewFileRegistry()
		populate(r, n)
		cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
			_, err := r.Import(ctx, "desired", "fiji")
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	if small, large := measure(50), measure(500); large < 2*small {
		t.Fatalf("cost did not grow with registry size: %v vs %v", small, large)
	}
}

// ---- Clearinghouse reregistration baseline.

func TestCHRegistryImport(t *testing.T) {
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r := NewCHRegistry(w.CHClient(), world.CHDomain, world.CHOrg)
	ctx := context.Background()

	want := sampleBinding(7)
	if err := r.Register(ctx, "desired", want); err != nil {
		t.Fatal(err)
	}
	got, err := r.Import(ctx, "desired")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Import = %v, want %v", got, want)
	}
	if _, err := r.Import(ctx, "never-registered"); err == nil {
		t.Fatal("unregistered service imported")
	}
}

// TestCHRegistryCostAnchor pins the paper's 166 ms figure.
func TestCHRegistryCostAnchor(t *testing.T) {
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r := NewCHRegistry(w.CHClient(), world.CHDomain, world.CHOrg)
	ctx := context.Background()
	if err := r.Register(ctx, "desired", sampleBinding(1)); err != nil {
		t.Fatal(err)
	}
	// Warm the Courier connection.
	if _, err := r.Import(ctx, "desired"); err != nil {
		t.Fatal(err)
	}
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		_, err := r.Import(ctx, "desired")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ms(cost); got < 150 || got > 182 {
		t.Fatalf("reregistered-CH binding = %.1f ms, want ≈166 ms", got)
	}
}
