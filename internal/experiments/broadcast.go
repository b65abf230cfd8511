package experiments

import (
	"context"
	"fmt"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/regbaseline"
	"hns/internal/simtime"
	"hns/internal/world"
)

// The broadcast-location ablation (X4): resolve a host name by
// interrogating every subsystem's name server versus the HNS's
// context-directed routing, as the federation grows. This quantifies the
// sentence in §2 rejecting multicast/search-path location.

// BroadcastPoint is one federation size's measurement.
type BroadcastPoint struct {
	// Subsystems is the number of federated name services.
	Subsystems int
	// BroadcastWorst is resolving a name held by the *last* subsystem
	// interrogated (the worst case broadcast pays routinely).
	BroadcastWorst time.Duration
	// BroadcastQueried is how many servers the worst case touched.
	BroadcastQueried int
	// HNSWarm is the HNS resolving the same name with a warm meta-cache.
	HNSWarm time.Duration
	// HNSCold is the same with a cold meta-cache (the honest comparison
	// for a first-ever reference).
	HNSCold time.Duration
}

// RunBroadcast sweeps federation sizes. The world must be fresh; synthetic
// types are integrated as needed.
func RunBroadcast(ctx context.Context, w *world.World, sizes []int) ([]BroadcastPoint, error) {
	var out []BroadcastPoint
	locator := regbaseline.NewBroadcastLocator()
	integrated := 0
	for _, target := range sizes {
		for integrated < target {
			if _, err := w.AddSyntheticType(ctx, integrated); err != nil {
				return nil, err
			}
			locator.AddServer(bind.NewStdClient(w.Net, "udp", fmt.Sprintf("type%d:53", integrated)))
			integrated++
		}
		// The target lives in the last-added subsystem — broadcast's
		// worst case, the HNS's indifference.
		lastIdx := integrated - 1
		host := world.SyntheticHost(lastIdx)
		var point BroadcastPoint
		point.Subsystems = integrated

		cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
			addr, queried, err := locator.Resolve(ctx, host)
			if err != nil {
				return err
			}
			if addr == "" {
				return fmt.Errorf("empty address for %s", host)
			}
			point.BroadcastQueried = queried
			return nil
		})
		if err != nil {
			return nil, err
		}
		point.BroadcastWorst = cost

		h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled})
		name := names.Must(world.SyntheticContext(lastIdx), host)
		resolve := func(ctx context.Context) error {
			b, err := h.FindNSM(ctx, name, qclass.HostAddress)
			if err != nil {
				return err
			}
			_, err = nsm.CallResolveHost(ctx, w.RPC, b, name)
			return err
		}
		if point.HNSCold, err = simtime.Measure(ctx, resolve); err != nil {
			return nil, err
		}
		if point.HNSWarm, err = simtime.Measure(ctx, resolve); err != nil {
			return nil, err
		}
		out = append(out, point)
	}
	return out, nil
}
