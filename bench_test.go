// Package hns_test holds the testing.B benchmark suite: one benchmark per
// table and figure of the paper's evaluation, plus ablation benches for
// the design choices DESIGN.md calls out. Each benchmark reports the
// simulated milliseconds per operation ("sim-ms/op") alongside Go's real
// wall-clock numbers; the simulated figures are the ones comparable to the
// paper (see EXPERIMENTS.md).
package hns_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/colocate"
	"hns/internal/core"
	"hns/internal/experiments"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/regbaseline"
	"hns/internal/simtime"
	"hns/internal/workload"
	"hns/internal/world"
)

func newBenchWorld(b *testing.B) *world.World {
	b.Helper()
	w, err := world.New(world.Config{CacheMode: bind.CacheMarshalled})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	return w
}

func reportSimMS(b *testing.B, total time.Duration) {
	b.Helper()
	b.ReportMetric(float64(total)/float64(time.Millisecond)/float64(b.N), "sim-ms/op")
}

// ---- Table 3.1: one benchmark per (arrangement, cache state) cell.

func BenchmarkTable31(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	for i, arr := range colocate.Arrangements() {
		arr := arr
		for _, col := range []struct {
			name  string
			state string
		}{
			{"A_CacheMiss", "miss"},
			{"B_HNSHit", "hnshit"},
			{"C_BothHit", "bothhit"},
		} {
			col := col
			b.Run(fmt.Sprintf("row%d_%s/%s", i+1, sanitize(arr.String()), col.name), func(b *testing.B) {
				im, err := colocate.New(w, arr, bind.CacheMarshalled)
				if err != nil {
					b.Fatal(err)
				}
				defer im.Close()
				// Warm connections.
				if _, err := im.Import(ctx, world.DesiredService,
					world.DesiredProgram, world.DesiredVersion, colocate.BindHostName()); err != nil {
					b.Fatal(err)
				}
				var totalSim time.Duration
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					switch col.state {
					case "miss":
						im.FlushHNSCache()
						im.FlushNSMCache()
					case "hnshit":
						im.FlushNSMCache()
					}
					b.StartTimer()
					cost, err := colocate.MeasureImport(ctx, im, world.DesiredService,
						world.DesiredProgram, world.DesiredVersion, colocate.BindHostName())
					if err != nil {
						b.Fatal(err)
					}
					totalSim += cost
				}
				b.StopTimer()
				reportSimMS(b, totalSim)
			})
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch r {
		case '[', ']', ',', ' ':
			// drop
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// ---- Table 3.2: cache access speed by marshalling form.

func BenchmarkTable32(b *testing.B) {
	w := newBenchWorld(b)
	ln, hb, err := hrpc.Serve(w.Net, w.BindServer.HRPCServer(), hrpc.SuiteLocal,
		"fiji", "fiji:bind-hrpc-bench32")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	client := hrpc.NewClient(w.Net)
	b.Cleanup(func() { client.Close() })
	backend := bind.NewHRPCClient(client, hb)
	ctx := context.Background()

	cases := []struct {
		records int
		name    string
	}{
		{1, world.HostBind},
		{6, world.GatewayHost},
	}
	for _, c := range cases {
		for _, mode := range []bind.CacheMode{bind.CacheMarshalled, bind.CacheDemarshalled} {
			c, mode := c, mode
			b.Run(fmt.Sprintf("%dRR/%sHit", c.records, mode), func(b *testing.B) {
				r := bind.NewResolver(backend, bind.ResolverConfig{Mode: mode})
				if _, err := r.Lookup(ctx, c.name, bind.TypeA); err != nil {
					b.Fatal(err)
				}
				var totalSim time.Duration
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
						_, err := r.Lookup(ctx, c.name, bind.TypeA)
						return err
					})
					if err != nil {
						b.Fatal(err)
					}
					totalSim += cost
				}
				reportSimMS(b, totalSim)
			})
		}
		c := c
		b.Run(fmt.Sprintf("%dRR/Miss", c.records), func(b *testing.B) {
			r := bind.NewResolver(backend, bind.ResolverConfig{})
			var totalSim time.Duration
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				r.Purge()
				b.StartTimer()
				cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
					_, err := r.Lookup(ctx, c.name, bind.TypeA)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				totalSim += cost
			}
			b.StopTimer()
			reportSimMS(b, totalSim)
		})
	}
}

// ---- Figure 2.1: the two-world query flow.

func BenchmarkFigure21QueryFlow(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	im, err := colocate.New(w, colocate.ClientHNSNSMs, bind.CacheMarshalled)
	if err != nil {
		b.Fatal(err)
	}
	defer im.Close()
	var totalSim time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
			if _, err := im.Import(ctx, "fileserver", world.CourierProgram,
				world.CourierVersion, "ch!"+world.CourierService); err != nil {
				return err
			}
			_, err := im.Import(ctx, world.DesiredService, world.DesiredProgram,
				world.DesiredVersion, colocate.BindHostName())
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		totalSim += cost
	}
	reportSimMS(b, totalSim)
}

// ---- Prose measurements.

func BenchmarkFindNSM(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	name := world.DesiredServiceName()

	b.Run("Uncached", func(b *testing.B) {
		h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled})
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			h.FlushCache()
			w.BindHostNSM.FlushCache()
			b.StartTimer()
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		b.StopTimer()
		reportSimMS(b, totalSim)
	})
	b.Run("Cached", func(b *testing.B) {
		h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled})
		if _, err := h.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
			b.Fatal(err)
		}
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		reportSimMS(b, totalSim)
	})
	b.Run("CachedDemarshalled", func(b *testing.B) {
		// Ablation: the Table 3.2 fix applied to the HNS cache.
		h := w.NewHNS(core.Config{CacheMode: bind.CacheDemarshalled})
		if _, err := h.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
			b.Fatal(err)
		}
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		reportSimMS(b, totalSim)
	})
}

// BenchmarkFindNSMWarmAllocs pins the warm FindNSM's heap behaviour: with
// the resolved-binding cache on and instrumentation off, a repeat call is
// one cache-key build plus a probe — at most 1 alloc/op, enforced by the
// bench-alloc gate (scripts/bench_alloc.sh). Wall-clock only.
func BenchmarkFindNSMWarmAllocs(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	name := world.DesiredServiceName()
	h := w.NewHNS(core.Config{
		CacheMode:       bind.CacheDemarshalled,
		Metrics:         metrics.Discard,
		BindingCacheTTL: time.Hour,
	})
	if _, err := h.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := h.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Observability guard: instrumentation overhead on the warm path.
//
// The metrics layer must be effectively free where it matters most: the
// cache-warm FindNSM, the call the paper says clients make "on nearly
// every binding". Two identical warm-path arms differ only in the
// registry: a live one (counters, per-step histograms, warm/cold
// classification all active) versus metrics.Discard (every instrument a
// nil no-op). Compare the wall-clock ns/op; the budget is <5% overhead.
// EXPERIMENTS.md records the measured numbers.
func BenchmarkInstrumentationOverhead(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	name := world.DesiredServiceName()

	arm := func(reg *metrics.Registry) func(*testing.B) {
		return func(b *testing.B) {
			h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled, Metrics: reg})
			if _, err := h.FindNSM(ctx, name, qclass.HRPCBinding); err != nil {
				b.Fatal(err)
			}
			var totalSim time.Duration
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
					_, err := h.FindNSM(ctx, name, qclass.HRPCBinding)
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				totalSim += cost
			}
			reportSimMS(b, totalSim)
		}
	}
	b.Run("Instrumented", arm(metrics.NewRegistry()))
	b.Run("Discard", arm(metrics.Discard))
}

func BenchmarkUnderlyingLookups(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	b.Run("BIND", func(b *testing.B) {
		std := w.BindStdClient()
		defer std.Close()
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := std.Lookup(ctx, world.HostBind, bind.TypeA)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		reportSimMS(b, totalSim)
	})
	b.Run("Clearinghouse", func(b *testing.B) {
		res, err := experiments.RunUnderlying(ctx, w)
		if err != nil {
			b.Fatal(err)
		}
		var totalSim time.Duration
		for n := 0; n < b.N; n++ {
			totalSim += res.Clearinghouse
		}
		reportSimMS(b, totalSim)
	})
}

func BenchmarkBaselines(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()

	b.Run("ReplicatedFiles", func(b *testing.B) {
		fr := regbaseline.NewFileRegistry()
		for i := 0; i < experiments.PaperBaselineEntries; i++ {
			fr.Add(regbaseline.FileEntry{
				Service: fmt.Sprintf("svc-%d", i), Host: "fiji",
				Binding: hrpc.SuiteSunRPC.Bind("fiji", fmt.Sprintf("fiji:%d", i), uint32(i), 1),
			})
		}
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := fr.Import(ctx, "svc-0", "fiji")
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		reportSimMS(b, totalSim)
	})
	b.Run("ReregisteredCH", func(b *testing.B) {
		cr := regbaseline.NewCHRegistry(w.CHClient(), world.CHDomain, world.CHOrg)
		if err := cr.Register(ctx, "svc", hrpc.SuiteSunRPC.Bind("fiji", "fiji:1", 1, 1)); err != nil {
			b.Fatal(err)
		}
		if _, err := cr.Import(ctx, "svc"); err != nil {
			b.Fatal(err)
		}
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := cr.Import(ctx, "svc")
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		reportSimMS(b, totalSim)
	})
}

func BenchmarkPreload(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	var totalSim time.Duration
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled})
		b.StartTimer()
		cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
			_, err := h.Preload(ctx)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		totalSim += cost
	}
	b.StopTimer()
	reportSimMS(b, totalSim)
}

// ---- Ablation: collapsed meta-mappings.
//
// DESIGN.md calls out the choice of keeping FindNSM's mappings separate
// rather than collapsing (context, query class) directly to an NSM
// binding. The collapsed design would do one meta lookup instead of five —
// cheaper cold, but it duplicates binding data per context and cannot
// share cached name-service or host records across contexts. This
// benchmark quantifies the cold-path cost the separate mappings pay.
func BenchmarkAblationCollapsedMapping(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()

	b.Run("SeparateMappings", func(b *testing.B) {
		h := w.NewHNS(core.Config{CacheMode: bind.CacheMarshalled})
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			h.FlushCache()
			w.BindHostNSM.FlushCache()
			b.StartTimer()
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := h.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		b.StopTimer()
		reportSimMS(b, totalSim)
	})
	b.Run("CollapsedSingleLookup", func(b *testing.B) {
		// Simulate the collapsed design: one meta record carrying the
		// whole answer (one remote lookup, no sharing).
		meta := w.MetaHRPCClient()
		pre, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding)
		if err != nil {
			b.Fatal(err)
		}
		collapsedName := "collapsed." + world.CtxBind + ".ctx." + world.MetaZone
		if _, err := meta.Update(ctx, world.MetaZone, bind.UpdateAdd,
			bind.HNSMeta(collapsedName, "binding="+pre.String(), 600)); err != nil {
			b.Fatal(err)
		}
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
				_, err := meta.Lookup(ctx, collapsedName, bind.TypeHNSMeta)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		reportSimMS(b, totalSim)
	})
}

// ---- Micro-benchmarks of the data structures themselves (real time).

func BenchmarkWireEncodeDecode(b *testing.B) {
	m := &bind.Message{ID: 1, Response: true, QName: world.HostBind, QType: bind.TypeA,
		Answers: []bind.RR{bind.A(world.HostBind, "fiji", 600)}}
	b.Run("Encode", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := bind.EncodeMessage(m); err != nil {
				b.Fatal(err)
			}
		}
	})
	buf, err := bind.EncodeMessage(m)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Decode", func(b *testing.B) {
		b.ReportAllocs()
		for n := 0; n < b.N; n++ {
			if _, err := bind.DecodeMessage(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHNSNameParse(b *testing.B) {
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		if _, err := names.Parse("hrpcbinding-bind!fiji.cs.washington.edu"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: binding cost vs registry size.
//
// The file baseline scans all reregistered data per binding, so it
// degrades with federation size; the HNS touches only the queried
// context's records, so it stays flat — the load "is naturally
// distributed among the subsystems".
func BenchmarkBindingVsRegistrySize(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()

	for _, entries := range []int{50, 200, 800} {
		entries := entries
		b.Run(fmt.Sprintf("ReplicatedFiles/%dentries", entries), func(b *testing.B) {
			fr := regbaseline.NewFileRegistry()
			for i := 0; i < entries; i++ {
				fr.Add(regbaseline.FileEntry{
					Service: fmt.Sprintf("svc-%d", i), Host: "fiji",
					Binding: hrpc.SuiteSunRPC.Bind("fiji", fmt.Sprintf("fiji:%d", i), uint32(i), 1),
				})
			}
			var totalSim time.Duration
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
					_, err := fr.Import(ctx, "svc-0", "fiji")
					return err
				})
				if err != nil {
					b.Fatal(err)
				}
				totalSim += cost
			}
			reportSimMS(b, totalSim)
		})
	}
	b.Run("HNS/warm", func(b *testing.B) {
		im, err := colocate.New(w, colocate.ClientHNSNSMs, bind.CacheMarshalled)
		if err != nil {
			b.Fatal(err)
		}
		defer im.Close()
		if _, err := im.Import(ctx, world.DesiredService,
			world.DesiredProgram, world.DesiredVersion, colocate.BindHostName()); err != nil {
			b.Fatal(err)
		}
		var totalSim time.Duration
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			cost, err := colocate.MeasureImport(ctx, im, world.DesiredService,
				world.DesiredProgram, world.DesiredVersion, colocate.BindHostName())
			if err != nil {
				b.Fatal(err)
			}
			totalSim += cost
		}
		reportSimMS(b, totalSim)
	})
}

// ---- Workload: dynamic hit ratios by HNS placement (the paper's stated
// future work, see internal/workload).
func BenchmarkWorkloadPlacement(b *testing.B) {
	w := newBenchWorld(b)
	ctx := context.Background()
	const contexts = 6
	for i := 0; i < contexts; i++ {
		if _, err := w.AddSyntheticType(ctx, i); err != nil {
			b.Fatal(err)
		}
	}
	spec := workload.Spec{Clients: 12, OpsPerClient: 3, Contexts: contexts, Skew: 1.3, Seed: 7}
	for _, placement := range []workload.Placement{workload.LocalHNS, workload.SharedRemoteHNS} {
		placement := placement
		b.Run(placement.String(), func(b *testing.B) {
			var totalSim time.Duration
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				res, err := workload.Run(ctx, w, spec, placement)
				if err != nil {
					b.Fatal(err)
				}
				totalSim += res.MeanOpCost
			}
			b.ReportMetric(float64(totalSim)/float64(time.Millisecond)/float64(b.N), "sim-ms/meanop")
		})
	}
}
