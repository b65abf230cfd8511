package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"hns/internal/metrics"
)

// cmdStats fetches a daemon's /debug/hns snapshot and pretty-prints it.
// Any daemon started with -metrics serves the endpoint.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	from := fs.String("from", "127.0.0.1:5390", "daemon metrics address (-metrics value)")
	filter := fs.String("filter", "", "only show series whose name contains this substring")
	if err := fs.Parse(args); err != nil {
		return err
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + *from + "/debug/hns")
	if err != nil {
		return fmt.Errorf("fetching snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching snapshot: %s", resp.Status)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return fmt.Errorf("decoding snapshot: %w", err)
	}

	match := func(name string) bool {
		return *filter == "" || strings.Contains(name, *filter)
	}
	printed := 0
	section := func(title string) {
		if printed > 0 {
			fmt.Println()
		}
		fmt.Printf("%s\n", title)
		printed++
	}

	// The push plane's subscriber table, summarized up front when the
	// daemon has one (bindd -push): the raw push_* series still appear in
	// the sections below.
	if v, ok := lookup(snap.Gauges, "push_subscribers"); ok && match("push_subscribers") {
		section("push plane:")
		row := func(label, name string, ss []metrics.Series) {
			n, _ := lookup(ss, name)
			fmt.Printf("  %-60s %d\n", label, n)
		}
		fmt.Printf("  %-60s %d\n", "subscribers now", v)
		row("subscriptions accepted", "push_subscribe_total", snap.Counters)
		row("subscriptions rejected (table full)", "push_subscribe_rejected_total", snap.Counters)
		row("notifies sent", "push_notify_sent_total", snap.Counters)
		row("notifies dropped (slow subscribers)", "push_notify_dropped_total", snap.Counters)
		row("subscriber connections dropped", "push_conn_drops_total", snap.Counters)
	}

	if any(snap.Counters, match) {
		section("counters:")
		for _, c := range snap.Counters {
			if match(c.Name) {
				fmt.Printf("  %-60s %d\n", c.Name, c.Value)
			}
		}
	}
	if any(snap.Gauges, match) {
		section("gauges:")
		for _, g := range snap.Gauges {
			if match(g.Name) {
				fmt.Printf("  %-60s %d\n", g.Name, g.Value)
			}
		}
	}
	histShown := false
	for _, h := range snap.Histograms {
		if !match(h.Name) {
			continue
		}
		if !histShown {
			section("histograms (ms):")
			histShown = true
		}
		fmt.Printf("  %-60s n=%-7d mean=%-8.3f p50≤%-7g p99≤%-7g\n",
			h.Name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99))
	}
	if printed == 0 {
		fmt.Println("no series matched")
	}
	return nil
}

func lookup(ss []metrics.Series, name string) (int64, bool) {
	for _, s := range ss {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

func any(ss []metrics.Series, match func(string) bool) bool {
	for _, s := range ss {
		if match(s.Name) {
			return true
		}
	}
	return false
}
