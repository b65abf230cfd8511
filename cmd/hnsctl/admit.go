package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
)

// cmdAdmit fetches a daemon's /debug/hns snapshot and renders the
// admission front-door state: one row per admission-controlled server
// (normally the hnsgw gateway started with -metrics) with admitted and
// shed totals broken out by reason, plus the live in-flight and
// known-client gauges.
func cmdAdmit(e *env, args []string) error {
	fs := flag.NewFlagSet("admit", flag.ExitOnError)
	from := fs.String("from", "127.0.0.1:5321", "daemon metrics address (-metrics value)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	snap, err := fetchSnapshot(*from)
	if err != nil {
		return err
	}

	type row struct {
		server             string
		admitted           int64
		shedRate, shedLoad int64
		inflight, clients  int64
	}
	rows := make(map[string]*row)
	get := func(server string) *row {
		r := rows[server]
		if r == nil {
			r = &row{server: server}
			rows[server] = r
		}
		return r
	}
	for _, c := range snap.Counters {
		name, labels, ok := splitSeries(c.Name)
		if !ok || !strings.HasPrefix(name, "admission_") {
			continue
		}
		server, reason := label(labels, "server"), label(labels, "reason")
		switch name {
		case "admission_admitted_total":
			get(server).admitted = c.Value
		case "admission_shed_total":
			switch reason {
			case "rate":
				get(server).shedRate = c.Value
			case "load":
				get(server).shedLoad = c.Value
			}
		}
	}
	for _, g := range snap.Gauges {
		name, labels, ok := splitSeries(g.Name)
		if !ok || !strings.HasPrefix(name, "admission_") {
			continue
		}
		server := label(labels, "server")
		switch name {
		case "admission_inflight":
			get(server).inflight = g.Value
		case "admission_clients":
			get(server).clients = g.Value
		}
	}
	if len(rows) == 0 {
		fmt.Fprintln(e.out, "no admission state recorded (is the daemon running with admission enabled?)")
		return nil
	}

	out := make([]*row, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].server < out[j].server })
	fmt.Fprintf(e.out, "%-24s %10s %11s %11s %9s %8s\n",
		"server", "admitted", "shed(rate)", "shed(load)", "inflight", "clients")
	for _, r := range out {
		fmt.Fprintf(e.out, "%-24s %10d %11d %11d %9d %8d\n",
			r.server, r.admitted, r.shedRate, r.shedLoad, r.inflight, r.clients)
	}
	return nil
}
