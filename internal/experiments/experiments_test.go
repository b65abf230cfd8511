package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/health"
	"hns/internal/simtime"
	"hns/internal/world"
)

func newWorld(t *testing.T) *world.World {
	t.Helper()
	w, err := world.New(world.Config{CacheMode: bind.CacheMarshalled})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func within(t *testing.T, name string, got time.Duration, wantMS, tolPct float64) {
	t.Helper()
	g := ms(got)
	if g < wantMS*(1-tolPct) || g > wantMS*(1+tolPct) {
		t.Errorf("%s = %.2f ms, want %.2f ± %.0f%%", name, g, wantMS, tolPct*100)
	}
}

func TestRunTable32ShapeAndAnchors(t *testing.T) {
	w := newWorld(t)
	rows, err := RunTable32(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		p := PaperTable32[r.Records]
		if !(r.DemarshalledHit < r.MarshalledHit && r.MarshalledHit < r.Miss) {
			t.Errorf("%dRR: ordering broken: %.2f/%.2f/%.2f",
				r.Records, ms(r.Miss), ms(r.MarshalledHit), ms(r.DemarshalledHit))
		}
		within(t, "marshalled hit", r.MarshalledHit, p[1], 0.10)
		within(t, "demarshalled hit", r.DemarshalledHit, p[2], 0.10)
		// Miss tolerance is looser: our colocated path keeps the Raw
		// control overhead (see EXPERIMENTS.md).
		within(t, "miss", r.Miss, p[0], 0.25)
	}
	if rows[1].Miss <= rows[0].Miss || rows[1].MarshalledHit <= rows[0].MarshalledHit {
		t.Error("costs must grow with record count")
	}
}

func TestRunFindNSM(t *testing.T) {
	w := newWorld(t)
	res, err := RunFindNSM(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "FindNSM hit", res.Hit, 88, 0.10)
	if res.Miss < 4*res.Hit {
		t.Errorf("caching speedup %.1fx too small", float64(res.Miss)/float64(res.Hit))
	}
}

func TestRunNSMCalls(t *testing.T) {
	w := newWorld(t)
	res, err := RunNSMCalls(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.SunRPC >= res.Courier {
		t.Errorf("Sun (%v) must be cheaper than Courier (%v)", res.SunRPC, res.Courier)
	}
	if ms(res.SunRPC) < 18 || ms(res.Courier) > 50 {
		t.Errorf("calls outside plausible band: %v / %v", res.SunRPC, res.Courier)
	}
}

func TestRunUnderlying(t *testing.T) {
	w := newWorld(t)
	res, err := RunUnderlying(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "BIND", res.Bind, 27, 0.10)
	within(t, "Clearinghouse", res.Clearinghouse, 156, 0.10)
}

func TestRunBaselines(t *testing.T) {
	w := newWorld(t)
	res, err := RunBaselines(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "files", res.FileReg, 200, 0.10)
	within(t, "rereg-CH", res.CHReg, 166, 0.10)
	// The paper's conclusion: tuned HNS ≲ homogeneous alternatives, and
	// the HNS spans both sides of the baselines.
	if res.HNSBest >= res.CHReg {
		t.Errorf("tuned HNS (%v) should beat the reregistered CH (%v)", res.HNSBest, res.CHReg)
	}
	if res.HNSWorst <= res.FileReg {
		t.Errorf("cold remote HNS (%v) should exceed the file baseline (%v)", res.HNSWorst, res.FileReg)
	}
}

func TestRunPreload(t *testing.T) {
	w := newWorld(t)
	res, err := RunPreload(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	within(t, "preload", res.Cost, 390, 0.15)
	if res.Bytes < 500 || res.Bytes > 8000 {
		t.Errorf("preload size %d bytes not at the paper's ~2 KB scale", res.Bytes)
	}
	// "preloading seems to be effective in situations where two or more
	// calls to the HNS for different context/query classes will be made":
	// cost must land between one and two cold FindNSMs.
	breakEven := float64(res.Cost) / float64(res.MissWithout-res.HitAfter)
	if breakEven < 1 || breakEven > 2 {
		t.Errorf("preload break-even at %.2f calls, want between 1 and 2", breakEven)
	}
}

func TestRunBreakEven(t *testing.T) {
	w := newWorld(t)
	res, err := RunBreakEven(context.Background(), w)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 11% and 42%.
	if res.QHNS < 0.08 || res.QHNS > 0.16 {
		t.Errorf("HNS break-even %.3f, want ≈0.11", res.QHNS)
	}
	if res.QNSM < 0.35 || res.QNSM > 0.50 {
		t.Errorf("NSM break-even %.3f, want ≈0.42", res.QNSM)
	}
	if res.QNSM < 2*res.QHNS {
		t.Error("remote NSMs must need a much larger hit-rate edge than a remote HNS")
	}
}

func TestRunMarshalling(t *testing.T) {
	w := newWorld(t)
	rows := RunMarshalling(context.Background(), w)
	for _, r := range rows {
		within(t, "hand", r.Hand, PaperMarshalling[r.Records], 0.05)
		if r.Generated < 5*r.Hand {
			t.Errorf("%dRR: generated (%v) not ≫ hand (%v)", r.Records, r.Generated, r.Hand)
		}
	}
}

func TestRunFigure21(t *testing.T) {
	w := newWorld(t)
	var buf bytes.Buffer
	if err := RunFigure21(context.Background(), w, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Clearinghouse NSM", "BIND NSM", "identical HRPCBinding interface",
		"hello from the client",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureNSMSources(t *testing.T) {
	sizes, err := MeasureNSMSources()
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
	for _, s := range sizes {
		// Each NSM file should be the same order of magnitude as the
		// paper's 230-line NSMs.
		if s.Lines < 40 || s.Lines > 600 {
			t.Errorf("%s = %d lines, outside the paper's order of magnitude", s.File, s.Lines)
		}
	}
}

func TestCountCodeLines(t *testing.T) {
	src := "package x\n\n// comment\n/* block\ncomment */\nfunc f() {}\n"
	// Counted: package, func. Not counted: blank, line comment, block
	// comment lines. (Lines *starting* with a block comment count as
	// comments even if code trails the close — an accepted approximation
	// for this report.)
	if got := countCodeLines(src); got != 2 {
		t.Fatalf("countCodeLines = %d, want 2", got)
	}
}

func TestRunScaling(t *testing.T) {
	w := newWorld(t)
	points, err := RunScaling(context.Background(), w, []int{1, 4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	first, last := points[0], points[len(points)-1]
	// Integration cost is O(1) in the number of existing types.
	ratio := float64(last.IntegrationCost) / float64(first.IntegrationCost)
	if ratio > 1.1 || ratio < 0.9 {
		t.Errorf("integration cost changed %.2fx with federation size", ratio)
	}
	// FindNSM stays flat as types are added (within 10%).
	ratio = float64(last.FindCold) / float64(first.FindCold)
	if ratio > 1.1 || ratio < 0.9 {
		t.Errorf("cold FindNSM scaled %.2fx with federation size", ratio)
	}
	if last.FindWarm > first.FindWarm*2 {
		t.Errorf("warm FindNSM degraded: %v -> %v", first.FindWarm, last.FindWarm)
	}
	// Meta-zone growth is linear in types, a handful of records each —
	// not in names (each type's own namespace stays in its own service).
	perType := float64(last.MetaRecords-first.MetaRecords) / 7
	if perType > 8 {
		t.Errorf("meta records per type = %.1f, want a small constant", perType)
	}
	// The new types actually resolve.
	if last.FindCold == 0 || last.FindWarm == 0 {
		t.Error("zero measurements")
	}
}

func TestRunConsistency(t *testing.T) {
	clk := simtime.NewFakeClock(time.Now())
	w, err := world.New(world.Config{Clock: clk, CacheMode: bind.CacheMarshalled})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := RunConsistency(context.Background(), w, clk)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StaleServed {
		t.Error("warm client did not see the stale binding — TTL semantics broken")
	}
	if res.Window <= 0 {
		t.Errorf("window = %v", res.Window)
	}
	if res.ConvergedTo.Addr != res.Moved.Addr {
		t.Errorf("converged to %v, want %v", res.ConvergedTo, res.Moved)
	}
}

func TestRunAvailability(t *testing.T) {
	clk := simtime.NewFakeClock(time.Unix(563328000, 0))
	w, err := world.New(world.Config{Clock: clk, CacheMode: bind.CacheMarshalled})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := RunAvailability(context.Background(), w, clk, 1987)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance bar: the workload survives a dead replica — and
	// here even a total blackout — at ≥ 99% success.
	if res.SuccessRate < 0.99 {
		t.Errorf("success rate %.3f, want >= 0.99 (%d/%d failed)",
			res.SuccessRate, res.Failures, res.Ops)
	}
	if res.Ops < 40 {
		t.Errorf("ops = %d, schedule too small to mean anything", res.Ops)
	}
	// Failover discovery is bounded by the breaker threshold: at most
	// Threshold retransmission waits over baseline, and strictly more
	// than zero (the first op after the kill must pay something).
	// The failover client's retry budget is one second.
	maxExtra := time.Duration(health.Threshold)*250*time.Millisecond + time.Second
	if res.FailoverExtra <= 0 || res.FailoverExtra > maxExtra {
		t.Errorf("failover extra = %v, want in (0, %v]", res.FailoverExtra, maxExtra)
	}
	// The blackout phase is carried entirely by serve-stale.
	if res.StaleServed == 0 {
		t.Error("no stale serves during the blackout — degraded mode never engaged")
	}
	// Breakers must have opened for the primary kill and the blackout.
	if res.BreakerOpens < 2 {
		t.Errorf("breaker opens = %d, want >= 2", res.BreakerOpens)
	}
	if res.Probes == 0 {
		t.Error("no half-open probes — recovery was never attempted")
	}
	if res.Failovers == 0 {
		t.Error("no failovers — the secondary never answered")
	}
	// Phase shape: steady failover should not cost an order of magnitude
	// over baseline (the breaker keeps dead-replica waits off the path).
	for _, p := range res.Phases {
		if p.Name == "restored" && p.Failures > 0 {
			t.Errorf("failures after full recovery: %d", p.Failures)
		}
	}
	// Determinism: the same seed replays the same schedule.
	clk2 := simtime.NewFakeClock(time.Unix(563328000, 0))
	w2, err := world.New(world.Config{Clock: clk2, CacheMode: bind.CacheMarshalled})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	res2, err := RunAvailability(context.Background(), w2, clk2, 1987)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SuccessRate != res.SuccessRate || res2.FailoverExtra != res.FailoverExtra ||
		res2.StaleServed != res.StaleServed || res2.BreakerOpens != res.BreakerOpens {
		t.Errorf("same seed diverged: %+v vs %+v", res, res2)
	}
}

func TestRunBroadcast(t *testing.T) {
	w := newWorld(t)
	points, err := RunBroadcast(context.Background(), w, []int{2, 8, 24})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	small, mid, large := points[0], points[1], points[2]
	// Broadcast interrogates every subsystem in the worst case.
	if small.BroadcastQueried != 2 || mid.BroadcastQueried != 8 || large.BroadcastQueried != 24 {
		t.Fatalf("queried = %d/%d/%d", small.BroadcastQueried, mid.BroadcastQueried, large.BroadcastQueried)
	}
	// Its cost grows linearly with federation size; the HNS's does not.
	if large.BroadcastWorst < 10*small.BroadcastWorst {
		t.Errorf("broadcast cost not linear: %v -> %v", small.BroadcastWorst, large.BroadcastWorst)
	}
	ratio := float64(large.HNSCold) / float64(small.HNSCold)
	if ratio > 1.1 || ratio < 0.9 {
		t.Errorf("HNS cold cost scaled %.2fx with federation size", ratio)
	}
	// The crossover: broadcast wins tiny federations even against a warm
	// HNS's first op, but a warm HNS beats it from ~6 subsystems on, and
	// by ~17 subsystems even a stone-cold HNS wins — "too inefficient in
	// our environment" is a statement about growth.
	if mid.HNSWarm >= mid.BroadcastWorst {
		t.Errorf("warm HNS (%v) not below 8-subsystem broadcast (%v)", mid.HNSWarm, mid.BroadcastWorst)
	}
	if large.HNSCold >= large.BroadcastWorst {
		t.Errorf("cold HNS (%v) not below 24-subsystem broadcast (%v)", large.HNSCold, large.BroadcastWorst)
	}
	if large.HNSWarm >= large.BroadcastWorst/3 {
		t.Errorf("warm HNS (%v) not ≪ 24-subsystem broadcast (%v)", large.HNSWarm, large.BroadcastWorst)
	}
}
