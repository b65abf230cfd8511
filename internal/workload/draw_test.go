package workload

import (
	"math"
	"testing"
)

// FuzzSpecValidate locks the Spec validation boundary: any spec Validate
// accepts must be safe to draw from (no panics in rand.NewZipf, every
// drawn context in range), and the documented rejections — non-positive
// counts, skew in (0,1], NaN/Inf skew — must actually reject.
func FuzzSpecValidate(f *testing.F) {
	f.Add(1, 1, 1, 0.0, int64(0))
	f.Add(3, 10, 4, 1.5, int64(42))
	f.Add(0, 1, 1, 0.0, int64(0))
	f.Add(1, 1, 1, 0.5, int64(0))
	f.Add(1, 1, 1, 1.0, int64(0))
	f.Add(1, 1, 1, math.NaN(), int64(0))
	f.Add(1, 1, 1, math.Inf(1), int64(0))
	f.Add(1024, 1, 64, 2.0, int64(-9))
	f.Fuzz(func(t *testing.T, clients, ops, contexts int, skew float64, seed int64) {
		spec := Spec{
			Clients:      clients,
			OpsPerClient: ops,
			Contexts:     contexts,
			Skew:         skew,
			Seed:         seed,
		}
		err := spec.Validate()

		wantReject := clients <= 0 || ops <= 0 || contexts <= 0 ||
			(skew != 0 && (math.IsNaN(skew) || math.IsInf(skew, 0) || skew <= 1))
		if wantReject {
			if err == nil {
				t.Fatalf("Validate accepted %+v", spec)
			}
			return
		}
		if err != nil {
			t.Fatalf("Validate rejected %+v: %v", spec, err)
		}

		// Keep the actual draw cheap: Validate's contract is per-field, so
		// clamping sizes here doesn't weaken what we lock.
		if spec.Clients > 4 {
			spec.Clients = 4
		}
		if spec.OpsPerClient > 64 {
			spec.OpsPerClient = 64
		}
		if spec.Contexts > 512 {
			spec.Contexts = 512
		}
		for client := 0; client < spec.Clients; client++ {
			stream := draw(spec, client)
			if len(stream) != spec.OpsPerClient {
				t.Fatalf("client %d drew %d ops, want %d", client, len(stream), spec.OpsPerClient)
			}
			for i, idx := range stream {
				if idx < 0 || idx >= spec.Contexts {
					t.Fatalf("client %d op %d drew context %d outside [0,%d)", client, i, idx, spec.Contexts)
				}
			}
		}
	})
}

// TestDrawDeterministic pins the (seed, client) → operation-stream map:
// schedules decide when a client's ops run, never what it asks for.
func TestDrawDeterministic(t *testing.T) {
	spec := Spec{Clients: 8, OpsPerClient: 64, Contexts: 6, Skew: 1.3, Seed: 99}
	for client := 0; client < spec.Clients; client++ {
		a, b := draw(spec, client), draw(spec, client)
		if len(a) != spec.OpsPerClient {
			t.Fatalf("client %d drew %d ops, want %d", client, len(a), spec.OpsPerClient)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("client %d op %d differs between draws: %d vs %d", client, i, a[i], b[i])
			}
			if a[i] < 0 || a[i] >= spec.Contexts {
				t.Fatalf("client %d op %d drew context %d outside [0,%d)", client, i, a[i], spec.Contexts)
			}
		}
	}
	// Neighbouring clients get decorrelated streams.
	a, b := draw(spec, 0), draw(spec, 1)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("clients 0 and 1 drew identical streams")
	}
}
