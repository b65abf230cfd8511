// Package workload implements the paper's stated future work: "Further
// work on the dynamic cache hit ratios achieved in practice will be
// required to make this decision [HNS/NSM placement] for any particular
// workload."
//
// It generates synthetic client populations issuing FindNSM operations
// with Zipf-distributed locality over a set of contexts, runs them against
// either per-client local HNS instances or one shared remote HNS service,
// and reports the achieved hit rates and mean operation costs — the p and
// p+q of equation (1), measured rather than assumed.
//
// The mechanism that makes the comparison interesting is exactly the one
// the paper identifies: a shared remote cache is warmed by *everyone's*
// misses (higher hit fraction), but every access pays a remote call;
// linked-in caches are free to reach but only as warm as their one
// client's history.
package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/world"
)

// Spec describes one synthetic population.
type Spec struct {
	// Clients is the population size.
	Clients int
	// OpsPerClient is how many FindNSM operations each client issues.
	OpsPerClient int
	// Contexts is how many distinct contexts the population draws from;
	// the world must have at least this many synthetic types integrated.
	Contexts int
	// Skew is the Zipf s parameter (>1); higher = more popularity
	// concentration. Zero means uniform.
	Skew float64
	// Seed makes the draw deterministic.
	Seed int64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch {
	case s.Clients <= 0:
		return fmt.Errorf("workload: need at least one client")
	case s.OpsPerClient <= 0:
		return fmt.Errorf("workload: need at least one op per client")
	case s.Contexts <= 0:
		return fmt.Errorf("workload: need at least one context")
	case s.Skew != 0 && (math.IsNaN(s.Skew) || math.IsInf(s.Skew, 0) || s.Skew <= 1):
		return fmt.Errorf("workload: Zipf skew must be finite and > 1 (or 0 for uniform)")
	}
	return nil
}

// Placement selects where the population's HNS lives.
type Placement int

// The placements equation (1) compares.
const (
	// LocalHNS links a private HNS (and cache) into every client.
	LocalHNS Placement = iota
	// SharedRemoteHNS serves one HNS remotely; all clients call it and
	// share its cache.
	SharedRemoteHNS
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	if p == SharedRemoteHNS {
		return "shared-remote"
	}
	return "local-per-client"
}

// Result summarises one run.
type Result struct {
	Placement Placement
	// HitRate is the aggregate HNS meta-cache hit rate (the achieved p,
	// or p+q for the shared cache).
	HitRate float64
	// MeanOpCost is the mean simulated cost per FindNSM operation as the
	// client experienced it (including the remote call for the shared
	// placement).
	MeanOpCost time.Duration
	// TotalCost is the population's summed cost.
	TotalCost time.Duration
	// Ops is the number of operations performed.
	Ops int
}

// clientRNG is the per-client random source every runner derives its
// draws from. The 7919 stride keeps neighbouring clients' streams
// decorrelated while leaving the (seed, client) → stream map pure.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(client)*7919))
}

// drawContexts fills n context indices from rng, Zipf-skewed or uniform.
func drawContexts(rng *rand.Rand, n, contexts int, skew float64) []int {
	ops := make([]int, n)
	if skew == 0 {
		for i := range ops {
			ops[i] = rng.Intn(contexts)
		}
		return ops
	}
	z := rand.NewZipf(rng, skew, 1, uint64(contexts-1))
	for i := range ops {
		ops[i] = int(z.Uint64())
	}
	return ops
}

// draw produces each client's operation sequence: context indices drawn
// Zipf or uniform. Deterministic per (seed, client).
func draw(spec Spec, client int) []int {
	return drawContexts(clientRNG(spec.Seed, client), spec.OpsPerClient, spec.Contexts, spec.Skew)
}

// Run executes the population under the given placement. The world must
// already contain spec.Contexts synthetic types (world.AddSyntheticType).
func Run(ctx context.Context, w *world.World, spec Spec, placement Placement) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Placement: placement}

	// Hit-rate accounting reads the backing *core.HNS instances.
	var instances []*core.HNS

	var finderFor func(client int) (core.Finder, error)
	switch placement {
	case LocalHNS:
		finderFor = func(int) (core.Finder, error) {
			h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled})
			instances = append(instances, h)
			return h, nil
		}
	case SharedRemoteHNS:
		shared := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled})
		instances = append(instances, shared)
		ln, b, err := core.ServeHNS(w.Net, shared, "beaver", fmt.Sprintf("beaver:hns-wl-%d", spec.Seed))
		if err != nil {
			return Result{}, err
		}
		defer ln.Close()
		remote := core.NewRemoteHNS(w.RPC, b)
		finderFor = func(int) (core.Finder, error) { return remote, nil }
	default:
		return Result{}, fmt.Errorf("workload: unknown placement %d", placement)
	}

	for client := 0; client < spec.Clients; client++ {
		finder, err := finderFor(client)
		if err != nil {
			return Result{}, err
		}
		for _, ctxIdx := range draw(spec, client) {
			name := names.Must(world.SyntheticContext(ctxIdx), world.SyntheticHost(ctxIdx))
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := finder.FindNSM(ctx, name, qclass.HostAddress)
				return err
			})
			if err != nil {
				return Result{}, fmt.Errorf("workload: client %d ctx %d: %w", client, ctxIdx, err)
			}
			res.TotalCost += cost
			res.Ops++
		}
	}

	var hits, misses int64
	for _, h := range instances {
		st := h.Stats()
		hits += st.Cache.Hits
		misses += st.Cache.Misses
	}
	if hits+misses > 0 {
		res.HitRate = float64(hits) / float64(hits+misses)
	}
	if res.Ops > 0 {
		res.MeanOpCost = res.TotalCost / time.Duration(res.Ops)
	}
	return res, nil
}

// Compare runs both placements on the same spec and reports them side by
// side — the equation (1) decision, measured.
func Compare(ctx context.Context, w *world.World, spec Spec) (local, shared Result, err error) {
	local, err = Run(ctx, w, spec, LocalHNS)
	if err != nil {
		return local, shared, err
	}
	shared, err = Run(ctx, w, spec, SharedRemoteHNS)
	return local, shared, err
}
