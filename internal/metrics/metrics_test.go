package metrics

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	cases := []struct {
		name string
		adds []int64
		want int64
	}{
		{"zero", nil, 0},
		{"single", []int64{1}, 1},
		{"many", []int64{1, 2, 3, 4}, 10},
		{"large", []int64{1 << 40, 1 << 40}, 1 << 41},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			ctr := r.Counter("x_total")
			for _, n := range c.adds {
				ctr.Add(n)
			}
			if got := ctr.Value(); got != c.want {
				t.Fatalf("Value() = %d, want %d", got, c.want)
			}
			// The same name returns the same instrument.
			if r.Counter("x_total") != ctr {
				t.Fatal("second Counter(x_total) is a different instrument")
			}
		})
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.GaugeFunc("fn", func() int64 { return 42 })
	snap := r.Snapshot()
	vals := map[string]int64{}
	for _, s := range snap.Gauges {
		vals[s.Name] = s.Value
	}
	if vals["depth"] != 5 || vals["fn"] != 42 {
		t.Fatalf("snapshot gauges = %v", vals)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		name       string
		observe    []time.Duration
		wantCount  int64
		wantSum    time.Duration
		wantBucket map[float64]int64 // LE ms -> count
		wantOver   int64
	}{
		{
			name:      "empty",
			wantCount: 0,
		},
		{
			name:       "sub_ms",
			observe:    []time.Duration{50 * time.Microsecond, 90 * time.Microsecond},
			wantCount:  2,
			wantSum:    140 * time.Microsecond,
			wantBucket: map[float64]int64{0.1: 2},
		},
		{
			name:       "boundary_inclusive",
			observe:    []time.Duration{time.Millisecond}, // exactly the 1ms bound
			wantCount:  1,
			wantSum:    time.Millisecond,
			wantBucket: map[float64]int64{1: 1},
		},
		{
			name:       "spread",
			observe:    []time.Duration{200 * time.Microsecond, 30 * time.Millisecond, 400 * time.Millisecond},
			wantCount:  3,
			wantSum:    430*time.Millisecond + 200*time.Microsecond,
			wantBucket: map[float64]int64{0.25: 1, 50: 1, 500: 1},
		},
		{
			name:      "overflow",
			observe:   []time.Duration{10 * time.Second},
			wantCount: 1,
			wantSum:   10 * time.Second,
			wantOver:  1,
		},
		{
			name:       "negative_clamped",
			observe:    []time.Duration{-time.Second},
			wantCount:  1,
			wantSum:    0,
			wantBucket: map[float64]int64{0.1: 1},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			h := r.Histogram("lat_ms")
			for _, d := range c.observe {
				h.Observe(d)
			}
			if h.Count() != c.wantCount {
				t.Fatalf("Count = %d, want %d", h.Count(), c.wantCount)
			}
			if h.Sum() != c.wantSum {
				t.Fatalf("Sum = %v, want %v", h.Sum(), c.wantSum)
			}
			snap := r.Snapshot()
			if len(snap.Histograms) != 1 {
				t.Fatalf("snapshot has %d histograms", len(snap.Histograms))
			}
			hs := snap.Histograms[0]
			got := map[float64]int64{}
			for _, b := range hs.Buckets {
				got[b.LE] = b.Count
			}
			for le, n := range c.wantBucket {
				if got[le] != n {
					t.Errorf("bucket le=%g count = %d, want %d (all: %v)", le, got[le], n, got)
				}
			}
			var inBuckets int64
			for _, n := range got {
				inBuckets += n
			}
			if inBuckets+hs.Overflow != c.wantCount {
				t.Errorf("buckets(%d)+overflow(%d) != count(%d)", inBuckets, hs.Overflow, c.wantCount)
			}
			if hs.Overflow != c.wantOver {
				t.Errorf("overflow = %d, want %d", hs.Overflow, c.wantOver)
			}
		})
	}
}

func TestNopInstrumentsAreSafe(t *testing.T) {
	var nilReg *Registry
	for _, r := range []*Registry{nil, Discard, nilReg} {
		c := r.Counter("c")
		c.Inc()
		c.Add(5)
		if c.Value() != 0 {
			t.Fatal("nop counter counted")
		}
		g := r.Gauge("g")
		g.Set(3)
		if g.Value() != 0 {
			t.Fatal("nop gauge stored")
		}
		h := r.Histogram("h")
		h.Observe(time.Second)
		if h.Count() != 0 || h.Sum() != 0 {
			t.Fatal("nop histogram observed")
		}
		r.GaugeFunc("f", func() int64 { return 1 })
		snap := r.Snapshot()
		if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
			t.Fatal("nop registry produced series")
		}
	}
}

func TestLabels(t *testing.T) {
	cases := []struct {
		name string
		kv   []string
		want string
	}{
		{"plain", nil, "plain"},
		{"q_total", []string{"rcode", "OK"}, `q_total{rcode="OK"}`},
		{"q_total", []string{"type", "A", "rcode", "NXDOMAIN"}, `q_total{type="A",rcode="NXDOMAIN"}`},
	}
	for _, c := range cases {
		if got := Labels(c.name, c.kv...); got != c.want {
			t.Errorf("Labels(%q, %v) = %q, want %q", c.name, c.kv, got, c.want)
		}
	}
}

func TestSnapshotTextAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter(Labels("bind_queries_total", "rcode", "OK")).Add(3)
	r.Gauge("cache_entries").Set(12)
	r.Histogram("core_findnsm_ms").Observe(42 * time.Millisecond)

	var b strings.Builder
	r.Snapshot().WriteText(&b)
	text := b.String()
	for _, want := range []string{
		`bind_queries_total{rcode="OK"} 3`,
		"cache_entries 12",
		"core_findnsm_ms_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}

	// The snapshot must round-trip through JSON (the /debug/hns wire form).
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 1 || back.Counters[0].Value != 3 {
		t.Fatalf("JSON round trip lost counters: %+v", back)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Fatalf("JSON round trip lost histograms: %+v", back)
	}
}

func TestQuantileAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 0; i < 90; i++ {
		h.Observe(2 * time.Millisecond) // -> le=2.5 bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(80 * time.Millisecond) // -> le=100 bucket
	}
	hs := r.Snapshot().Histograms[0]
	if got := hs.Quantile(0.5); got != 2.5 {
		t.Errorf("p50 = %g, want 2.5", got)
	}
	if got := hs.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %g, want 100", got)
	}
	wantMean := (90*2.0 + 10*80.0) / 100
	if got := hs.Mean(); got < wantMean-0.01 || got > wantMean+0.01 {
		t.Errorf("mean = %g, want ~%g", got, wantMean)
	}
}

// TestRegistryStress hammers one registry from 64 goroutines — the -race
// guard for the whole instrument suite. Each goroutine mixes instrument
// creation (shared and private names), increments, observations, gauge
// funcs, and snapshots.
func TestRegistryStress(t *testing.T) {
	const (
		goroutines = 64
		iters      = 500
	)
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := fmt.Sprintf("private_%d_total", g)
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Counter(mine).Inc()
				r.Gauge("shared_gauge").Set(int64(i))
				r.Histogram("shared_ms").Observe(time.Duration(i) * time.Microsecond)
				if i%64 == 0 {
					r.GaugeFunc("fn_gauge", func() int64 { return int64(g) })
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != goroutines*iters {
		t.Fatalf("shared counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Histogram("shared_ms").Count(); got != goroutines*iters {
		t.Fatalf("shared histogram count = %d, want %d", got, goroutines*iters)
	}
	for g := 0; g < goroutines; g++ {
		name := fmt.Sprintf("private_%d_total", g)
		if got := r.Counter(name).Value(); got != iters {
			t.Fatalf("%s = %d, want %d", name, got, iters)
		}
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "up_total 1") {
		t.Fatalf("/metrics output: %q", b.String())
	}

	resp, err = http.Get("http://" + srv.Addr() + "/debug/hns")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(readAll(t, resp)), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Name != "up_total" {
		t.Fatalf("/debug/hns snapshot: %+v", snap)
	}
}

// The endpoint serves a CPU profile of the process, gzip'd protobuf as
// pprof writes it, and none of net/http/pprof's other pages.
func TestHTTPCPUProfile(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK || !strings.HasPrefix(body, "\x1f\x8b") {
		t.Fatalf("/debug/pprof/profile = %s, %d bytes starting %q; want a gzip'd profile", resp.Status, len(body), body[:min(len(body), 16)])
	}
	for _, page := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		resp, err := http.Get("http://" + srv.Addr() + page)
		if err != nil {
			t.Fatal(err)
		}
		if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %s, want 404 Not Found", page, resp.Status)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return b.String()
}
