package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"hns/internal/health"
)

// cmdHealth fetches a daemon's /debug/hns snapshot and renders the
// breaker state of every replica endpoint the daemon talks to: one row
// per (service, endpoint) with the circuit state and the failure /
// failover counters. Any daemon started with -metrics serves the data;
// rows exist once a replica-aware client has touched an endpoint.
func cmdHealth(e *env, args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	from := fs.String("from", "127.0.0.1:5390", "daemon metrics address (-metrics value)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	snap, err := fetchSnapshot(*from)
	if err != nil {
		return err
	}

	type row struct {
		service, endpoint       string
		state                   health.State
		healthy                 bool
		opens, probes, failures int64
	}
	rows := make(map[string]*row)
	get := func(labels string) *row {
		r := rows[labels]
		if r == nil {
			r = &row{}
			r.service, r.endpoint = label(labels, "service"), label(labels, "endpoint")
			rows[labels] = r
		}
		return r
	}
	for _, g := range snap.Gauges {
		name, labels, ok := splitSeries(g.Name)
		if !ok {
			continue
		}
		switch name {
		case "endpoint_health":
			get(labels).healthy = g.Value != 0
		case "breaker_state":
			get(labels).state = health.State(g.Value)
		}
	}
	for _, c := range snap.Counters {
		name, labels, ok := splitSeries(c.Name)
		if !ok {
			continue
		}
		switch name {
		case "breaker_opens_total":
			get(labels).opens = c.Value
		case "breaker_probes_total":
			get(labels).probes = c.Value
		case "breaker_failures_total":
			get(labels).failures = c.Value
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(e.out, "no endpoint health recorded (no replica-aware client has run yet)")
		return nil
	}

	out := make([]*row, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].service != out[j].service {
			return out[i].service < out[j].service
		}
		return out[i].endpoint < out[j].endpoint
	})
	fmt.Fprintf(e.out, "%-14s %-28s %-9s %-8s %6s %7s %9s\n",
		"service", "endpoint", "state", "healthy", "opens", "probes", "failures")
	for _, r := range out {
		fmt.Fprintf(e.out, "%-14s %-28s %-9s %-8v %6d %7d %9d\n",
			r.service, r.endpoint, r.state, r.healthy, r.opens, r.probes, r.failures)
	}
	return nil
}

// splitSeries splits a labelled series name "n{k="v",...}" into the bare
// name and the label body; ok is false for unlabelled series.
func splitSeries(s string) (name, labels string, ok bool) {
	i := strings.IndexByte(s, '{')
	if i < 0 || !strings.HasSuffix(s, "}") {
		return "", "", false
	}
	return s[:i], s[i+1 : len(s)-1], true
}

// label returns key's value in a label body like
// `service="hrpc",endpoint="127.0.0.1:5301"`, or "" when it has none.
func label(labels, key string) string {
	for _, kv := range strings.Split(labels, ",") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}
