package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"hns/internal/bind"
	"hns/internal/colocate"
	"hns/internal/experiments"
	"hns/internal/simtime"
	"hns/internal/workload"
	"hns/internal/world"
)

func printTable31(ctx context.Context, out io.Writer, w *world.World) error {
	table, err := colocate.RunTable31(ctx, w, bind.CacheMarshalled)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Table 3.1 — Performance of HRPC Binding for Various Colocation Arrangements (msec.)")
	fmt.Fprintln(out, "[ ] indicates colocation; 'paper' columns are the published 1987 measurements.")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-24s %18s %18s %18s\n", "", "A. Cache Miss", "B. HNS Hit", "C. HNS+NSM Hit")
	fmt.Fprintf(out, "%-24s %9s %8s %9s %8s %9s %8s\n",
		"Arrangement", "measured", "paper", "measured", "paper", "measured", "paper")
	for i, arr := range colocate.Arrangements() {
		c := table[arr]
		p := colocate.PaperTable31[arr]
		fmt.Fprintf(out, "%d. %-21s %9.1f %8.0f %9.1f %8.0f %9.1f %8.0f\n",
			i+1, arr, ms(c.Miss), p[0], ms(c.HNSHit), p[1], ms(c.BothHit), p[2])
	}
	r1, r5 := table[colocate.ClientHNSNSMs], table[colocate.AllRemote]
	fmt.Fprintln(out)
	fmt.Fprintf(out, "shape: caching saves %.0f ms on the all-local row; full colocation saves only %.0f ms\n",
		ms(r1.Miss-r1.BothHit), ms(r5.Miss-r1.Miss))
	fmt.Fprintln(out, "       => \"the potential benefit of caching far exceeds that obtainable solely by colocation\"")
	return nil
}

// checkTable31 is the regression gate behind hnsbench -check: every cell
// of Table 3.1 must reproduce within ±20% of the published value.
func checkTable31(ctx context.Context, out io.Writer, w *world.World) error {
	table, err := colocate.RunTable31(ctx, w, bind.CacheMarshalled)
	if err != nil {
		return err
	}
	failures := 0
	for _, arr := range colocate.Arrangements() {
		cell := table[arr]
		paper := colocate.PaperTable31[arr]
		for i, got := range []float64{ms(cell.Miss), ms(cell.HNSHit), ms(cell.BothHit)} {
			want := paper[i]
			dev := got/want - 1
			status := "ok"
			if dev < -0.20 || dev > 0.20 {
				status = "FAIL"
				failures++
			}
			fmt.Fprintf(out, "%-4s %-24s col %s: %6.1f ms vs paper %4.0f (%+5.1f%%)\n",
				status, arr, []string{"A", "B", "C"}[i], got, want, dev*100)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of 15 cells outside ±20%%", failures)
	}
	fmt.Fprintln(out, "all 15 cells within ±20% of the paper")
	return nil
}

func printTable32(ctx context.Context, out io.Writer, w *world.World) error {
	rows, err := experiments.RunTable32(ctx, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Table 3.2 — The Effect of Marshalling Costs on Cache Access Speed (msec.)")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-10s %19s %22s %24s\n", "Resource", "Cache miss", "Marshalled cache hit", "Demarshalled cache hit")
	fmt.Fprintf(out, "%-10s %10s %8s %12s %9s %13s %10s\n",
		"records", "measured", "paper", "measured", "paper", "measured", "paper")
	for _, r := range rows {
		p := experiments.PaperTable32[r.Records]
		fmt.Fprintf(out, "%-10d %10.2f %8.2f %12.2f %9.2f %13.2f %10.2f\n",
			r.Records, ms(r.Miss), p[0], ms(r.MarshalledHit), p[1], ms(r.DemarshalledHit), p[2])
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "shape: keeping cached data demarshalled turns an ~11-26 ms hit into a sub-ms one.")
	return nil
}

func printFigure21(ctx context.Context, out io.Writer, w *world.World) error {
	return experiments.RunFigure21(ctx, w, out)
}

func printFindNSM(ctx context.Context, out io.Writer, w *world.World) error {
	res, err := experiments.RunFindNSM(ctx, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "P1 — FindNSM cost (msec.), marshalled meta-cache")
	fmt.Fprintf(out, "  uncached: measured %6.1f   paper 460\n", ms(res.Miss))
	fmt.Fprintf(out, "  cached:   measured %6.1f   paper  88\n", ms(res.Hit))
	fmt.Fprintf(out, "  speedup:  measured %5.1fx  paper 5.2x\n", float64(res.Miss)/float64(res.Hit))
	return nil
}

func printNSMCall(ctx context.Context, out io.Writer, w *world.World) error {
	res, err := experiments.RunNSMCalls(ctx, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "P2 — remote NSM call overhead by RPC system (msec.); paper: 22-38")
	fmt.Fprintf(out, "  Sun RPC / UDP:  %5.1f\n", ms(res.SunRPC))
	fmt.Fprintf(out, "  Courier / TCP:  %5.1f\n", ms(res.Courier))
	return nil
}

func printUnderlying(ctx context.Context, out io.Writer, w *world.World) error {
	res, err := experiments.RunUnderlying(ctx, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "P3 — underlying name service lookups (msec.)")
	fmt.Fprintf(out, "  BIND:          measured %6.1f   paper  27\n", ms(res.Bind))
	fmt.Fprintf(out, "  Clearinghouse: measured %6.1f   paper 156\n", ms(res.Clearinghouse))
	fmt.Fprintln(out, "  (Clearinghouse authenticates every access and reads from disk — footnote 5.)")
	return nil
}

func printBaselines(ctx context.Context, out io.Writer, w *world.World) error {
	res, err := experiments.RunBaselines(ctx, w)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "P4 — binding mechanisms compared (msec.), %d registered services\n",
		experiments.PaperBaselineEntries)
	fmt.Fprintf(out, "  replicated local files:      measured %6.1f   paper 200\n", ms(res.FileReg))
	fmt.Fprintf(out, "  reregistered Clearinghouse:  measured %6.1f   paper 166\n", ms(res.CHReg))
	fmt.Fprintf(out, "  HNS best (local, warm):      measured %6.1f   paper 104\n", ms(res.HNSBest))
	fmt.Fprintf(out, "  HNS worst (remote, cold):    measured %6.1f   paper 547\n", ms(res.HNSWorst))
	fmt.Fprintln(out, "  => \"the tuned HNS performance is reasonably close to that of homogeneous name services\"")
	return nil
}

func printPreload(ctx context.Context, out io.Writer, w *world.World) error {
	res, err := experiments.RunPreload(ctx, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "P5 — meta-cache preloading via zone transfer")
	fmt.Fprintf(out, "  transferred: %d records, %d bytes   (paper: \"about 2KB\")\n", res.Records, res.Bytes)
	fmt.Fprintf(out, "  preload cost:        measured %6.1f ms   paper ~390\n", ms(res.Cost))
	fmt.Fprintf(out, "  FindNSM after:       measured %6.1f ms (all hits)\n", ms(res.HitAfter))
	fmt.Fprintf(out, "  FindNSM cold:        measured %6.1f ms\n", ms(res.MissWithout))
	breakEvenCalls := float64(res.Cost) / float64(res.MissWithout-res.HitAfter)
	fmt.Fprintf(out, "  pays off at %.1f distinct context/query-class calls (paper: between 1 and 2)\n",
		breakEvenCalls)
	return nil
}

func printBreakEven(ctx context.Context, out io.Writer, w *world.World) error {
	res, err := experiments.RunBreakEven(ctx, w)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "P6 — equation (1): extra hit fraction q a remote location must earn")
	fmt.Fprintf(out, "  inputs: C(remote call)=%.0f ms, HNS miss/hit=%.0f/%.0f, NSM miss/hit=%.0f/%.0f\n",
		ms(res.RemoteCall), ms(res.HNSMiss), ms(res.HNSHit), ms(res.NSMMiss), ms(res.NSMHit))
	fmt.Fprintf(out, "  remote HNS needs q > %4.1f%%   (paper: 11%%)\n", res.QHNS*100)
	fmt.Fprintf(out, "  remote NSMs need q > %4.1f%%   (paper: 42%%)\n", res.QNSM*100)
	return nil
}

func printMarshalling(ctx context.Context, out io.Writer, w *world.World) error {
	rows := experiments.RunMarshalling(ctx, w)
	fmt.Fprintln(out, "P7 — generated (stub-compiler) vs hand-coded (standard library) marshalling (msec.)")
	fmt.Fprintf(out, "%-10s %12s %18s %14s\n", "records", "hand", "hand (paper)", "generated")
	for _, r := range rows {
		fmt.Fprintf(out, "%-10d %12.2f %18.2f %14.2f\n",
			r.Records, ms(r.Hand), experiments.PaperMarshalling[r.Records], ms(r.Generated))
	}
	fmt.Fprintln(out, "  (the generated routines' overhead is what made the marshalled cache slow — Table 3.2)")
	return nil
}

func printBroadcast(ctx context.Context, out io.Writer, _ *world.World) error {
	// Builds its own world: the sweep integrates synthetic subsystems.
	w, err := world.New(world.Config{CacheMode: bind.CacheMarshalled})
	if err != nil {
		return err
	}
	defer w.Close()
	points, err := experiments.RunBroadcast(ctx, w, []int{2, 4, 8, 16, 24})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Broadcast name location vs the HNS (the alternative §2 rejects), worst case")
	fmt.Fprintf(out, "%-12s %18s %10s %12s %12s\n",
		"subsystems", "broadcast (ms)", "queried", "HNS cold", "HNS warm")
	for _, p := range points {
		fmt.Fprintf(out, "%-12d %18.1f %10d %12.1f %12.1f\n",
			p.Subsystems, ms(p.BroadcastWorst), p.BroadcastQueried, ms(p.HNSCold), ms(p.HNSWarm))
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "shape: broadcast grows linearly with the federation; the HNS is flat. A warm")
	fmt.Fprintln(out, "HNS wins from ~6 subsystems, a cold one from ~17 — \"too inefficient in our")
	fmt.Fprintln(out, "environment\" is a statement about growth, not small-federation latency.")
	return nil
}

func printHitRatios(ctx context.Context, out io.Writer, _ *world.World) error {
	// Builds its own world: the populations need synthetic contexts.
	w, err := world.New(world.Config{CacheMode: bind.CacheMarshalled})
	if err != nil {
		return err
	}
	defer w.Close()
	const contexts = 6
	for i := 0; i < contexts; i++ {
		if _, err := w.AddSyntheticType(ctx, i); err != nil {
			return err
		}
	}
	fmt.Fprintln(out, "Dynamic cache hit ratios in practice (the paper's stated future work)")
	fmt.Fprintln(out, "Populations of clients FindNSM-ing over 6 contexts, Zipf locality:")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-34s %18s %18s %10s\n", "population", "local-per-client", "shared-remote", "winner")
	fmt.Fprintf(out, "%-34s %8s %9s %8s %9s\n", "", "hit-rate", "mean-ms", "hit-rate", "mean-ms")
	for _, tc := range []struct {
		label string
		spec  workload.Spec
	}{
		{"12 clients x 3 ops (cold-start)",
			workload.Spec{Clients: 12, OpsPerClient: 3, Contexts: contexts, Skew: 1.3, Seed: 7}},
		{"3 clients x 80 ops (long-lived)",
			workload.Spec{Clients: 3, OpsPerClient: 80, Contexts: contexts, Skew: 1.5, Seed: 11}},
	} {
		local, shared, err := workload.Compare(ctx, w, tc.spec)
		if err != nil {
			return err
		}
		winner := "local"
		if shared.MeanOpCost < local.MeanOpCost {
			winner = "shared"
		}
		fmt.Fprintf(out, "%-34s %7.0f%% %9.1f %7.0f%% %9.1f %10s\n",
			tc.label, local.HitRate*100, ms(local.MeanOpCost),
			shared.HitRate*100, ms(shared.MeanOpCost), winner)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "shape: equation (1) realised — a shared remote HNS wins when its extra hit")
	fmt.Fprintln(out, "fraction q (earned from other clients' misses) beats the remote-call tax;")
	fmt.Fprintln(out, "long-lived clients warm their own caches and local linking wins.")
	return nil
}

func printConsistency(ctx context.Context, out io.Writer, _ *world.World) error {
	// Needs a controllable clock, so it builds its own world.
	clk := simtime.NewFakeClock(time.Unix(563328000, 0)) // Nov 1987
	w, err := world.New(world.Config{Clock: clk, CacheMode: bind.CacheMarshalled})
	if err != nil {
		return err
	}
	defer w.Close()
	res, err := experiments.RunConsistency(ctx, w, clk)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Cache consistency under the TTL discipline (paper footnote 7)")
	fmt.Fprintf(out, "  stale binding served immediately after the move: %v (by design)\n", res.StaleServed)
	fmt.Fprintf(out, "  staleness window: %s (the meta records' TTL)\n", res.Window)
	fmt.Fprintf(out, "  after the window the client converges to %s\n", res.ConvergedTo.Addr)
	fmt.Fprintln(out, "  => \"given our assumption that data changes slowly over time, this mechanism will suffice\"")
	return nil
}

func printAvailability(ctx context.Context, out io.Writer, _ *world.World) error {
	// Needs a controllable clock and its own chaos transport, so it
	// builds its own world.
	clk := simtime.NewFakeClock(time.Unix(563328000, 0)) // Nov 1987
	w, err := world.New(world.Config{Clock: clk, CacheMode: bind.CacheMarshalled})
	if err != nil {
		return err
	}
	defer w.Close()
	res, err := experiments.RunAvailability(ctx, w, clk, 1987)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Availability under replica failure (two-replica meta BIND, chaos plan, seed 1987)")
	fmt.Fprintf(out, "%-16s %5s %9s %14s %13s\n", "phase", "ops", "failures", "mean op (ms)", "stale serves")
	for _, p := range res.Phases {
		fmt.Fprintf(out, "%-16s %5d %9d %14.1f %13d\n",
			p.Name, p.Ops, p.Failures, ms(p.MeanCost), p.StaleServed)
	}
	fmt.Fprintf(out, "  success rate: %.4f over %d ops (%d failures)\n", res.SuccessRate, res.Ops, res.Failures)
	fmt.Fprintf(out, "  failover discovery cost: +%.0f ms on the first op after the primary went silent\n",
		ms(res.FailoverExtra))
	fmt.Fprintf(out, "  breaker opens: %d, half-open probes: %d, failovers to the secondary: %d\n",
		res.BreakerOpens, res.Probes, res.Failovers)
	fmt.Fprintf(out, "  blackout survived on %d stale meta answers (serve-stale ceiling %s)\n",
		res.StaleServed, 24*time.Hour)
	fmt.Fprintln(out, "  => \"distributed and replicated for the usual reasons of performance, availability, and scalability\"")
	return nil
}

func printScaling(ctx context.Context, out io.Writer, w *world.World) error {
	sizes := []int{1, 2, 4, 8, 16}
	points, err := experiments.RunScaling(ctx, w, sizes)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Scaling in the heterogeneity dimension (the paper's design goal, measured)")
	fmt.Fprintf(out, "%-14s %16s %14s %14s %12s\n",
		"system types", "integrate (ms)", "FindNSM cold", "FindNSM warm", "meta records")
	for _, p := range points {
		fmt.Fprintf(out, "%-14d %16.1f %14.1f %14.1f %12d\n",
			p.SystemTypes, ms(p.IntegrationCost), ms(p.FindCold), ms(p.FindWarm), p.MetaRecords)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "shape: integrating the Nth type costs the same as the 1st; FindNSM is flat in")
	fmt.Fprintln(out, "the number of types — load distributes across the subsystems; the meta zone")
	fmt.Fprintln(out, "grows by a small constant per type, never with the subsystems' name counts.")
	return nil
}

func printNSMSize(ctx context.Context, out io.Writer, w *world.World) error {
	sizes, err := experiments.MeasureNSMSources()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "P8 — NSM implementation size (paper: binding NSMs ≈ %d lines each)\n",
		experiments.PaperNSMLines)
	total := 0
	for _, s := range sizes {
		fmt.Fprintf(out, "  %-28s %4d code lines\n", s.File, s.Lines)
		total += s.Lines
	}
	fmt.Fprintf(out, "  %-28s %4d (six NSMs: two per query class)\n", "total", total)
	return nil
}

func printScale(ctx context.Context, out io.Writer, _ *world.World) error {
	spec := experiments.DefaultScaleSpec()
	rows, err := experiments.RunScale(ctx, spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Fleet-scale scenario matrix (simulated fleet over the colocation topology)")
	fmt.Fprintf(out, "%d sites, %d contexts, Zipf skew %.1f, %d ops/client, seed %d; every number\n",
		spec.Sites, spec.Contexts, spec.Skew, spec.OpsPerClient, spec.Seed)
	fmt.Fprintln(out, "is simulated, so the matrix is deterministic per seed.")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-12s %9s %10s %10s %7s %7s %7s %10s %7s\n",
		"scenario", "clients", "p50 ms", "p99 ms", "host", "site", "auth", "fetches", "stale")
	for _, r := range rows {
		fmt.Fprintf(out, "%-12s %9d %10.2f %10.2f %6.0f%% %6.0f%% %6.0f%% %10d %7d\n",
			r.Scenario, r.Clients, r.SimP50Ms, r.SimP99Ms,
			r.HostHitRatio*100, r.SiteHitRatio*100, r.AuthorityHitRatio*100,
			r.AuthorityFetches, r.StaleOps)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "shape: authority fetches track sites x contexts, not clients — the cache")
	fmt.Fprintln(out, "hierarchy absorbs fleet growth, and primaryloss answers from the secondary")
	fmt.Fprintln(out, "(and serve-stale grace) so failures stay zero through the blackholed peak.")
	return nil
}
