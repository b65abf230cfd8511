package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"
	"time"
)

func sequenceHash(seed int64) string {
	h := sha256.New()
	base := 0
	for window, kind := range []seqKind{seqHot, seqTenant, seqFlip, seqMix} {
		ops := opSequence(seed, kind, window, 1500, base)
		opsHash(h, ops)
		if kind == seqTenant {
			base += len(ops)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := sequenceHash(7), sequenceHash(7); a != b {
		t.Errorf("same seed, different op sequences: %s vs %s", a, b)
	}
	if a, b := sequenceHash(7), sequenceHash(8); a == b {
		t.Error("different seeds gave the same op sequences")
	}

	const tenants = 300
	zone := func(seed int64) []byte {
		p, err := newPopulation(seed, "6320", tenants)
		if err != nil {
			t.Fatal(err)
		}
		data, err := zoneFile(p.meta)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	z7 := zone(7)
	if !bytes.Equal(z7, zone(7)) {
		t.Error("same seed, different zone files")
	}
	if bytes.Equal(z7, zone(8)) {
		t.Error("different seeds gave the same zone file")
	}
	// Base world (2 name services + their 5-record NSMs + 1 context),
	// the hot set, and 7 records per tenant.
	if got, want := bytes.Count(z7, []byte("\n")), 2*6+1+hotContexts+7*tenants; got != want {
		t.Errorf("meta zone has %d records, want %d", got, want)
	}
}

func TestOpSequenceShapes(t *testing.T) {
	const n = 4 * hotContexts
	count := func(ops []op, k opKind) (c int) {
		for _, o := range ops {
			if o.kind == k {
				c++
			}
		}
		return c
	}
	for _, tc := range []struct {
		kind           seqKind
		flips, lo, hi  int
		resolveTenants bool
	}{
		{seqHot, 0, 0, hotContexts, false},
		{seqFlip, n, 0, hotContexts, false},
		{seqMix, n / flipEvery, 0, hotContexts, false},
		{seqTenant, 0, 100, 100 + n, true},
	} {
		ops := opSequence(1, tc.kind, 0, n, 100)
		if len(ops) != n {
			t.Fatalf("kind %d: %d ops, want %d", tc.kind, len(ops), n)
		}
		if got := count(ops, opFlip); got != tc.flips {
			t.Errorf("kind %d: %d flips, want %d", tc.kind, got, tc.flips)
		}
		for _, o := range ops {
			if o.ctx < tc.lo || o.ctx >= tc.hi {
				t.Fatalf("kind %d: op on %d, outside [%d,%d)", tc.kind, o.ctx, tc.lo, tc.hi)
			}
			if (o.kind == opResolveTenant) != tc.resolveTenants {
				t.Fatalf("kind %d: unexpected op kind %d", tc.kind, o.kind)
			}
		}
	}

	// Every tenant of a cold window is distinct, and so is any run of
	// inflightSaturated consecutive contexts of the other kinds: two
	// flips of one context are never in flight together.
	ops := opSequence(1, seqFlip, 3, n, 0)
	for i := 0; i+inflightSaturated <= len(ops); i++ {
		seen := map[int]bool{}
		for _, o := range ops[i : i+inflightSaturated] {
			if seen[o.ctx] {
				t.Fatalf("context %d twice within %d consecutive ops at %d", o.ctx, inflightSaturated, i)
			}
			seen[o.ctx] = true
		}
	}

	// update_mix: a context flipped in one walk of the permutation is
	// resolved in the next one.
	mix := opSequence(1, seqMix, 0, 2*hotContexts, 0)
	for i, o := range mix[:hotContexts] {
		if o.kind == opFlip {
			if next := mix[i+hotContexts]; next.ctx != o.ctx || next.kind != opResolveCtx {
				t.Fatalf("flip of %d at %d is followed by %+v one walk later, want a resolve of it", o.ctx, i, next)
			}
		}
	}
}

func TestPlanKeepsSnapshotsPerWindowFixed(t *testing.T) {
	for _, w := range workloadNames {
		for _, scale := range []float64{0.3, 1, 1.7} {
			specs, err := plan(w, scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range specs {
				if s.n <= 0 {
					t.Errorf("%s ×%g: window of %d ops", w, scale, s.n)
				}
				flips := 0
				switch s.kind {
				case seqFlip:
					flips = s.n
				case seqMix:
					flips = s.n / flipEvery
					if s.n%(flipEvery*hotContexts) != 0 && s.inflight > 1 {
						t.Errorf("%s ×%g: saturated mix window of %d ops", w, scale, s.n)
					}
				}
				// Two journaled records per flip, a snapshot every 1024. Only
				// update_mix's serial window is exempt: one stalled op in
				// thousands moves neither its p50 nor its p90.
				if !(s.kind == seqMix && s.inflight == 1) && flips*2%1024 != 0 {
					t.Errorf("%s ×%g: window journals %d records, not a multiple of 1024", w, scale, flips*2)
				}
			}
		}
	}
	if _, err := plan("open_resolve", 1); err == nil {
		t.Error("plan accepted an unknown workload")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	us := func(v ...int) []time.Duration {
		d := make([]time.Duration, len(v))
		for i, x := range v {
			d[i] = time.Duration(x) * time.Microsecond
		}
		return d
	}
	for _, tc := range []struct {
		d    []time.Duration
		p    float64
		want float64
	}{
		{us(5), 50, 5},
		{us(4, 1, 3, 2), 50, 2},
		{us(4, 1, 3, 2), 90, 4},
		{us(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 90, 9},
		{us(10, 9, 8, 7, 6, 5, 4, 3, 2, 1), 99, 10},
		{nil, 50, 0},
	} {
		if got := percentile(tc.d, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.d, tc.p, got, tc.want)
		}
	}

	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its argument")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g", got)
	}
	if got := cvPct([]float64{10, 10, 10}); got != 0 {
		t.Errorf("cvPct of a constant = %g", got)
	}
	if got := cvPct([]float64{9, 11}); math.Abs(got-14.142) > 0.01 {
		t.Errorf("cvPct(9, 11) = %g, want 14.14", got)
	}

	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := []byte("4242 (bind d) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 7 0 99999 123456789 3000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n")
	ticks, err := parseStat(stat)
	if err != nil || ticks != 731+269 {
		t.Errorf("parseStat = %d, %v, want 1000", ticks, err)
	}
	if _, err := parseStat([]byte("4242 bindd S 1")); err == nil {
		t.Error("parseStat accepted a line without a command name")
	}
	if _, err := parseStat([]byte("4242 (bindd) S 1 2 3")); err == nil {
		t.Error("parseStat accepted a truncated line")
	}

	status := []byte("Name:\tbindd\nVmHWM:\t  204800 kB\nVmRSS:\t  102400 kB\nCpus_allowed_list:\t1\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n")
	if got := statusKB(status, "VmHWM"); got != 204800 {
		t.Errorf("VmHWM = %d", got)
	}
	if got := statusKB(status, "VmRSS"); got != 102400 {
		t.Errorf("VmRSS = %d", got)
	}
	if got := statusKB(status, "VmSwap"); got != 0 {
		t.Errorf("missing field = %d", got)
	}
	if v, ok := statusField(status, "Cpus_allowed_list"); !ok || v != "1" {
		t.Errorf("Cpus_allowed_list = %q, %v", v, ok)
	}
	if got := statusInt(status, "voluntary_ctxt_switches") + statusInt(status, "nonvoluntary_ctxt_switches"); got != 127 {
		t.Errorf("context switches = %d", got)
	}

	io := []byte("rchar: 3980\nwchar: 12\nsyscr: 900\nsyscw: 100\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n")
	if got := parseIO(io); got != 1000 {
		t.Errorf("parseIO = %d, want 1000", got)
	}
	if got := parseSchedstat([]byte("123456789 5530 42\n")); got != 123456789 {
		t.Errorf("parseSchedstat = %d", got)
	}
	if got := parseSchedstat(nil); got != 0 {
		t.Errorf("parseSchedstat(nil) = %d", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	off.end(0)

	tr := newTracer()
	if id := tr.begin("x", 0); id != 0 {
		t.Errorf("tracer that is not on handed out span %d", id)
	}
	tr.on = true
	root := tr.begin("client.op", 0)
	a := tr.begin("client.findnsm", root)
	tr.end(a)
	b := tr.begin("client.nsm_call", root)
	tr.end(b)
	tr.end(root)
	// Fixed times, so the arithmetic is checked and not the clock.
	tr.spans[root-1].start, tr.spans[root-1].end = 0, 100_000
	tr.spans[a-1].start, tr.spans[a-1].end = 10_000, 50_000
	tr.spans[b-1].start, tr.spans[b-1].end = 50_000, 80_000
	for _, s := range tr.spans {
		if s.op != root {
			t.Errorf("span of op %d, want %d", s.op, root)
		}
	}
	rows := map[string]layerRow{}
	for _, r := range tr.layerTable() {
		rows[r.Name] = r
	}
	if r := rows["client.op"]; r.Count != 1 || r.TotalUS != 100 || r.SelfUS != 30 {
		t.Errorf("client.op row = %+v, want total 100 self 30", r)
	}
	if r := rows["client.findnsm"]; r.TotalUS != 40 || r.SelfUS != 40 {
		t.Errorf("client.findnsm row = %+v", r)
	}
}
