package experiments

import (
	"context"
	"fmt"
	"time"

	"hns/internal/workload"
)

// ScaleSpec parameterizes the fleet-scale scenario matrix: every named
// workload scenario run at each client-count point over a fixed site
// topology. Every reported number (latency percentiles, per-tier hit
// ratios, effective authority fetches) is simulated, so it is
// deterministic per seed.
type ScaleSpec struct {
	// ClientPoints are the fleet sizes to sweep.
	ClientPoints []int
	// Sites is the site count the population spreads over.
	Sites int
	// OpsPerClient, Contexts, Skew, Seed are as in workload.FleetSpec.
	OpsPerClient int
	Contexts     int
	Skew         float64
	Seed         int64
	// Scenarios names the scenarios to run; empty means the pinned
	// default matrix (scaleScenarios), so the printed matrix stays
	// bit-identical as new scenarios accrue elsewhere.
	Scenarios []string
}

// DefaultScaleSpec is the hnsbench configuration: three decades of fleet
// size, every scenario.
func DefaultScaleSpec() ScaleSpec {
	return ScaleSpec{
		ClientPoints: []int{1000, 10000, 100000},
		Sites:        8,
		OpsPerClient: 4,
		Contexts:     8,
		Skew:         1.3,
		Seed:         1987,
	}
}

// scaleScenarios is the default matrix, pinned rather than derived from
// workload.Scenarios(): a scenario added elsewhere (hotupdate) must not
// silently change the matrix's frozen shape.
var scaleScenarios = []string{"coldstart", "flashcrowd", "primaryloss"}

func (s ScaleSpec) scenarios() []string {
	if len(s.Scenarios) > 0 {
		return s.Scenarios
	}
	return append([]string(nil), scaleScenarios...)
}

// ScaleRow is one (scenario, client-count) cell of the matrix; every
// field is deterministic per seed.
type ScaleRow struct {
	Scenario string
	Clients  int
	Sites    int
	Ops      int

	SimP50Ms  float64
	SimP99Ms  float64
	SimMeanMs float64

	HostHitRatio      float64
	SiteHitRatio      float64
	AuthorityHitRatio float64
	AuthorityFetches  int64
	StaleOps          int64
	SimFailures       int
}

// scaleRow flattens a fleet result into a matrix row.
func scaleRow(res workload.FleetResult) ScaleRow {
	return ScaleRow{
		Scenario:          res.Scenario,
		Clients:           res.Clients,
		Sites:             res.Sites,
		Ops:               res.Ops,
		SimP50Ms:          simMs(res.P50),
		SimP99Ms:          simMs(res.P99),
		SimMeanMs:         simMs(res.Mean),
		HostHitRatio:      res.Host.HitRatio,
		SiteHitRatio:      res.Site.HitRatio,
		AuthorityHitRatio: res.Authority.HitRatio,
		AuthorityFetches:  res.AuthorityFetches,
		StaleOps:          res.StaleOps,
		SimFailures:       res.Failures,
	}
}

// RunScale runs the scenario matrix: every scenario at every client
// point, in canonical order (scenario-major).
func RunScale(ctx context.Context, spec ScaleSpec) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, name := range spec.scenarios() {
		for _, clients := range spec.ClientPoints {
			fs := workload.FleetSpec{
				Sites:        spec.Sites,
				Clients:      clients,
				OpsPerClient: spec.OpsPerClient,
				Contexts:     spec.Contexts,
				Skew:         spec.Skew,
				Seed:         spec.Seed,
			}
			res, err := workload.RunScenario(ctx, name, fs)
			if err != nil {
				return nil, fmt.Errorf("experiments: scale %s/%d clients: %w", name, clients, err)
			}
			rows = append(rows, scaleRow(res))
		}
	}
	return rows, nil
}

// simMs converts a simulated duration to milliseconds.
func simMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
