package main

import (
	"regexp"
	"testing"
)

// The harness and BENCHMARK.json must name the same workloads and
// metrics with the same units: the driver refuses a run whose last line
// does not carry exactly the listed metrics.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the op counts are sized for %d", bf.RunSeconds, runSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var got []string
	for _, w := range bf.Workloads {
		got = append(got, w.Name)
		if _, err := plan(w.Name, 1); err != nil {
			t.Errorf("workload %s is listed but the harness cannot run it: %v", w.Name, err)
		}
	}
	sameNames(t, "workloads", got, workloadNames)

	check := func(section string, listed map[string]string, defs []metricDef) {
		var want []string
		for _, d := range defs {
			want = append(want, d.name)
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", section, d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s: %s has unit %q", section, d.name, d.unit)
			}
			if u, ok := listed[d.name]; ok && u != d.unit {
				t.Errorf("%s: %s is listed in %q, emitted in %q", section, d.name, u, d.unit)
			}
		}
		var have []string
		for n := range listed {
			have = append(have, n)
		}
		sameNames(t, section, have, want)
	}
	e2e := make(map[string]string)
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2e, endToEnd)
	layer := make(map[string]string)
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per_layer", layer, perLayer)
}

// sameNames reports every name that is in one list and not the other,
// or in either list twice.
func sameNames(t *testing.T, what string, listed, emitted []string) {
	t.Helper()
	count := func(names []string) map[string]int {
		m := make(map[string]int)
		for _, n := range names {
			m[n]++
		}
		return m
	}
	l, e := count(listed), count(emitted)
	for n, c := range l {
		if c > 1 {
			t.Errorf("%s: %s is listed %d times in BENCHMARK.json", what, n, c)
		}
		if e[n] == 0 {
			t.Errorf("%s: %s is listed in BENCHMARK.json but the harness does not emit it", what, n)
		}
	}
	for n, c := range e {
		if c > 1 {
			t.Errorf("%s: the harness emits %s %d times", what, n, c)
		}
		if l[n] == 0 {
			t.Errorf("%s: %s is emitted by the harness but not listed in BENCHMARK.json", what, n)
		}
	}
}
