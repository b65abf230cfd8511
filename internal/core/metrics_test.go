package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"hns/internal/core"
	"hns/internal/metrics"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/world"
)

// findnsmCounters reads the core_findnsm_* series back out of a registry.
func findnsmCounters(reg *metrics.Registry) (warm, cold, errs int64) {
	warm = reg.Counter(metrics.Labels("core_findnsm_total", "state", "warm")).Value()
	cold = reg.Counter(metrics.Labels("core_findnsm_total", "state", "cold")).Value()
	errs = reg.Counter("core_findnsm_errors_total").Value()
	return
}

// TestFindNSMMetricsConcurrent drives one instrumented HNS from many
// goroutines and checks the books balance: every call is counted exactly
// once, classified warm or cold by what the meta-cache actually did, and
// every mapping step's histogram saw every call.
func TestFindNSMMetricsConcurrent(t *testing.T) {
	const (
		goroutines = 32
		perG       = 25
	)
	w := newWorld(t, world.Config{})
	reg := metrics.NewRegistry()
	h := w.NewHNS(core.Config{Metrics: reg})

	// Prime the meta-cache: exactly one cache-cold call.
	if _, err := h.FindNSM(context.Background(), world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	if warm, cold, errs := findnsmCounters(reg); warm != 0 || cold != 1 || errs != 0 {
		t.Fatalf("after priming: warm=%d cold=%d errs=%d, want 0/1/0", warm, cold, errs)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := h.FindNSM(context.Background(), world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	const want = goroutines * perG
	warm, cold, errs := findnsmCounters(reg)
	if warm != want || cold != 1 || errs != 0 {
		t.Fatalf("warm=%d cold=%d errs=%d, want %d/1/0", warm, cold, errs, want)
	}
	if n := reg.Histogram(metrics.Labels("core_findnsm_ms", "state", "warm")).Count(); n != want {
		t.Fatalf("warm latency histogram count = %d, want %d", n, want)
	}
	if n := reg.Histogram(metrics.Labels("core_findnsm_ms", "state", "cold")).Count(); n != 1 {
		t.Fatalf("cold latency histogram count = %d, want 1", n)
	}
	// Every successful call walks all six mappings exactly once.
	for step := 1; step <= 6; step++ {
		name := metrics.Labels("core_findnsm_step_ms", "step", fmt.Sprintf("mapping%d", step))
		if n := reg.Histogram(name).Count(); n != want+1 {
			t.Errorf("%s count = %d, want %d", name, n, want+1)
		}
	}
	// The registered cache gauges must agree with the HNS's own stats.
	st := h.Stats()
	snap := reg.Snapshot()
	gauges := map[string]int64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if got := gauges[metrics.Labels("cache_hits_total", "cache", "meta")]; got != st.Cache.Hits {
		t.Errorf("cache_hits_total gauge = %d, HNS stats say %d", got, st.Cache.Hits)
	}
	if got := gauges[metrics.Labels("cache_misses_total", "cache", "meta")]; got != st.Cache.Misses {
		t.Errorf("cache_misses_total gauge = %d, HNS stats say %d", got, st.Cache.Misses)
	}
}

// TestFindNSMHistogramsFollowTheCallersClock: the latency histograms
// read the one clock the call runs on. Under a meter (world, hnsbench)
// the cold total is exactly the simulated cost of the walk — everything
// the meter was charged after FindNSM's own assembly cost. With no meter
// (a daemon) the same series read the wall clock, so they are non-zero
// rather than silently empty.
func TestFindNSMHistogramsFollowTheCallersClock(t *testing.T) {
	coldAndSteps := func(reg *metrics.Registry) (cold *metrics.Histogram, steps time.Duration) {
		for step := 1; step <= 6; step++ {
			steps += reg.Histogram(metrics.Labels("core_findnsm_step_ms",
				"step", fmt.Sprintf("mapping%d", step))).Sum()
		}
		return reg.Histogram(metrics.Labels("core_findnsm_ms", "state", "cold")), steps
	}

	w := newWorld(t, world.Config{})
	reg := metrics.NewRegistry()
	h := w.NewHNS(core.Config{Metrics: reg})
	meter := simtime.NewMeter()
	ctx := simtime.WithMeter(context.Background(), meter)
	if _, err := h.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	cold, steps := coldAndSteps(reg)
	if want := meter.Elapsed() - simtime.FindNSMAssembly; cold.Count() != 1 || cold.Sum() != want {
		t.Fatalf("metered cold total: count %d sum %v, want 1 / exactly %v of meter time",
			cold.Count(), cold.Sum(), want)
	}
	if steps <= 0 || steps > cold.Sum() {
		t.Fatalf("metered step sums = %v, want within (0, %v]", steps, cold.Sum())
	}

	reg = metrics.NewRegistry()
	h = w.NewHNS(core.Config{Metrics: reg})
	if _, err := h.FindNSM(context.Background(), world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}
	cold, steps = coldAndSteps(reg)
	if cold.Count() != 1 || cold.Sum() <= 0 || steps <= 0 {
		t.Fatalf("meterless cold total: count %d sum %v steps %v, want 1 and wall time > 0",
			cold.Count(), cold.Sum(), steps)
	}
}

// TestFindNSMErrorCounter: failed calls land in core_findnsm_errors_total,
// not in the warm/cold totals.
func TestFindNSMErrorCounter(t *testing.T) {
	w := newWorld(t, world.Config{})
	reg := metrics.NewRegistry()
	h := w.NewHNS(core.Config{Metrics: reg})
	if _, err := h.FindNSM(context.Background(), world.DesiredServiceName(), "no-such-class"); err == nil {
		t.Fatal("expected error for unknown query class")
	}
	warm, cold, errs := findnsmCounters(reg)
	if errs != 1 {
		t.Fatalf("errors = %d, want 1", errs)
	}
	if warm != 0 || cold != 0 {
		t.Fatalf("failed call leaked into warm=%d/cold=%d", warm, cold)
	}
}

// TestTracerEvents: the structured tracer sees one Event per mapping step
// carrying duration and cache state — cold on first touch, warm once the
// meta-cache holds every mapping.
func TestTracerEvents(t *testing.T) {
	w := newWorld(t, world.Config{})

	collect := func() []core.Event {
		var events []core.Event
		ctx := core.WithTracer(context.Background(), func(e core.Event) { events = append(events, e) })
		ctx = simtime.WithMeter(ctx, simtime.NewMeter())
		if _, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
			t.Fatal(err)
		}
		return events
	}

	w.HNS.FlushCache()
	cold := collect()
	warm := collect()

	wantSteps := []string{"mapping 1", "mapping 2", "mapping 3", "mapping 4", "mapping 5", "mapping 6", "resolved"}
	for name, events := range map[string][]core.Event{"cold": cold, "warm": warm} {
		if len(events) != len(wantSteps) {
			t.Fatalf("%s pass: %d events, want %d", name, len(events), len(wantSteps))
		}
		for i, e := range events {
			if e.Step != wantSteps[i] {
				t.Errorf("%s pass event %d: Step = %q, want %q", name, i, e.Step, wantSteps[i])
			}
			if e.Detail == "" {
				t.Errorf("%s pass event %d has empty Detail", name, i)
			}
		}
	}
	// The five meta-mapping steps are cold on the first pass, warm on the
	// second; each cold meta lookup costs simulated time.
	for i := 0; i < 5; i++ {
		if cold[i].Cache != core.CacheCold {
			t.Errorf("cold pass %s: Cache = %q, want cold", cold[i].Step, cold[i].Cache)
		}
		if cold[i].Duration <= 0 {
			t.Errorf("cold pass %s: Duration = %v, want > 0", cold[i].Step, cold[i].Duration)
		}
		if warm[i].Cache != core.CacheWarm {
			t.Errorf("warm pass %s: Cache = %q, want warm", warm[i].Step, warm[i].Cache)
		}
	}
}

// TestEventStringIsStepLine: each Event flattens through Event.String to
// the classic one-line trace form, "<step>: <detail>", one line per step.
func TestEventStringIsStepLine(t *testing.T) {
	w := newWorld(t, world.Config{})

	w.HNS.FlushCache()
	var events []core.Event
	ctx := core.WithTracer(context.Background(), func(e core.Event) { events = append(events, e) })
	if _, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatal(err)
	}

	if len(events) == 0 {
		t.Fatal("tracer got no events")
	}
	for i, e := range events {
		if want := e.Step + ": " + e.Detail; e.String() != want {
			t.Errorf("event %d = %q, want %q", i, e.String(), want)
		}
	}
}

// TestUntracedWarmFindNSMAllocs pins the heap cost of the warm FindNSM
// as hnsd runs it: a live registry, a chaining meta-cache, no tracer. No
// step may box or format a trace detail nobody reads, and no mapping may
// copy or re-parse the cache's shared answer.
func TestUntracedWarmFindNSMAllocs(t *testing.T) {
	w := newWorld(t, world.Config{})
	h := w.NewHNS(core.Config{Metrics: metrics.NewRegistry(), ChainMeta: true})
	ctx := context.Background()
	find := func() {
		if _, err := h.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
			t.Fatal(err)
		}
	}
	find()
	if n := testing.AllocsPerRun(100, find); n > 17 {
		t.Errorf("warm FindNSM: %v allocs, want <= 17", n)
	}
}
