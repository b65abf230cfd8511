// Package experiments contains runnable reproductions of every table,
// figure, and prose measurement in the paper's evaluation (Section 3).
// Each runner returns structured results; cmd/hnsbench formats them next
// to the paper's published numbers, and bench_test.go wraps them in
// testing.B benchmarks. DESIGN.md's experiment index maps each paper
// artifact to its runner here.
package experiments

import (
	"context"
	"fmt"
	"time"

	"hns/internal/bind"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/world"
)

// Table32Row is one row of Table 3.2: "The Effect of Marshalling Costs on
// Cache Access Speed (msec.)".
type Table32Row struct {
	Records         int
	Miss            time.Duration
	MarshalledHit   time.Duration
	DemarshalledHit time.Duration
}

// PaperTable32 records the published numbers (ms) keyed by resource
// records per name.
var PaperTable32 = map[int][3]float64{
	1: {20.23, 11.11, 0.83},
	6: {32.34, 26.17, 1.22},
}

// RunTable32 reproduces Table 3.2. The measurement mirrors the paper's
// setup: BIND lookups through the HRPC (generated-marshalling) interface
// with the measuring process colocated with the server, cache kept first
// in marshalled then in demarshalled form.
func RunTable32(ctx context.Context, w *world.World) ([]Table32Row, error) {
	// Colocated HRPC interface to fiji's BIND.
	ln, hb, err := hrpc.Serve(w.Net, w.BindServer.HRPCServer(), hrpc.SuiteLocal,
		"fiji", "fiji:bind-hrpc-t32")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	client := hrpc.NewClient(w.Net)
	defer client.Close()
	backend := bind.NewHRPCClient(client, hb)

	cases := []struct {
		records int
		name    string
	}{
		{1, world.HostBind},
		{6, world.GatewayHost},
	}
	var rows []Table32Row
	for _, c := range cases {
		row := Table32Row{Records: c.records}

		// Miss: a fresh resolver, cold cache.
		for _, probe := range []struct {
			mode bind.CacheMode
			dst  *time.Duration
		}{
			{bind.CacheMarshalled, &row.MarshalledHit},
			{bind.CacheDemarshalled, &row.DemarshalledHit},
		} {
			r := bind.NewResolver(backend, bind.ResolverConfig{
				Mode: probe.mode, Clock: w.Clock,
			})
			missCost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				rrs, err := r.Lookup(ctx, c.name, bind.TypeA)
				if err != nil {
					return err
				}
				if len(rrs) != c.records {
					return fmt.Errorf("table 3.2: %s returned %d records, want %d", c.name, len(rrs), c.records)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			// The miss path is identical in both modes; keep the first.
			if row.Miss == 0 {
				row.Miss = missCost
			}
			hitCost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := r.Lookup(ctx, c.name, bind.TypeA)
				return err
			})
			if err != nil {
				return nil, err
			}
			*probe.dst = hitCost
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MarshallingCosts reports the standalone marshalling comparison from the
// paper's prose: the standard BIND library routines (0.65 / 2.6 ms for one
// and six records) versus the stub-compiler generated routines — the P7
// ablation of generated vs hand-written marshalling.
type MarshallingCosts struct {
	Records   int
	Hand      time.Duration
	Generated time.Duration
}

// PaperMarshalling records the published standard-library numbers (ms).
var PaperMarshalling = map[int]float64{1: 0.65, 6: 2.6}

// RunMarshalling measures both marshalling styles at 1 and 6 records.
func RunMarshalling(ctx context.Context, w *world.World) []MarshallingCosts {
	var out []MarshallingCosts
	for _, n := range []int{1, 6} {
		row := MarshallingCosts{Records: n}
		row.Hand, _ = simtime.Measure(ctx, func(ctx context.Context) error {
			marshal.ChargeRecords(ctx, marshal.StyleHand, n)
			return nil
		})
		row.Generated, _ = simtime.Measure(ctx, func(ctx context.Context) error {
			marshal.ChargeRecords(ctx, marshal.StyleGenerated, n)
			return nil
		})
		out = append(out, row)
	}
	return out
}
