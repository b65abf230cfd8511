package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"hns/internal/metrics"
)

// cmdStore fetches a daemon's /debug/hns snapshot and renders the
// durable-store series — WAL appends and fsyncs, snapshots, recovery —
// grouped per store label. A bindd started with -data-dir and -metrics
// is the usual target.
func cmdStore(args []string) error {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	from := fs.String("from", "127.0.0.1:5390", "daemon metrics address (-metrics value)")
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

	// Group every store-labelled series by the label value.
	type storeView struct {
		counters map[string]int64
		gauges   map[string]int64
	}
	stores := make(map[string]*storeView)
	view := func(label string) *storeView {
		v, ok := stores[label]
		if !ok {
			v = &storeView{counters: make(map[string]int64), gauges: make(map[string]int64)}
			stores[label] = v
		}
		return v
	}
	for _, c := range snap.Counters {
		if base, label, ok := storeSeries(c.Name); ok {
			view(label).counters[base] = c.Value
		}
	}
	for _, g := range snap.Gauges {
		if base, label, ok := storeSeries(g.Name); ok {
			view(label).gauges[base] = g.Value
		}
	}
	if len(stores) == 0 {
		fmt.Println("no durable-store series; is the daemon running with -data-dir?")
		return nil
	}

	labels := make([]string, 0, len(stores))
	for l := range stores {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for i, label := range labels {
		if i > 0 {
			fmt.Println()
		}
		v := stores[label]
		fmt.Printf("store %q\n", label)
		fmt.Printf("  wal:       %d appends, %d fsyncs, last lsn %d, %d segments, %d bytes since checkpoint\n",
			v.counters["wal_appends_total"], v.counters["wal_fsync_total"],
			v.gauges["store_wal_last_lsn"], v.gauges["store_wal_segments"],
			v.gauges["store_wal_bytes_since_checkpoint"])
		fmt.Printf("  snapshots: %d written, %d failed, covering lsn %d (%d skipped as invalid)\n",
			v.counters["snapshot_total"], v.counters["snapshot_errors_total"],
			v.gauges["store_snapshot_lsn"], v.gauges["store_snapshot_skipped"])
		fmt.Printf("  recovery:  %d records replayed, %d torn bytes dropped, %d ms\n",
			v.gauges["store_recovery_replayed"], v.gauges["store_recovery_torn_bytes"],
			v.gauges["store_recovery_ms"])
		for _, h := range snap.Histograms {
			if base, l, ok := storeSeries(h.Name); ok && l == label && base == "wal_fsync_seconds" {
				fmt.Printf("  fsync:     n=%d mean=%.3gms p99≤%gms\n",
					h.Count, h.Mean(), h.Quantile(0.99))
			}
		}
	}
	return nil
}

// storeSeries splits a series name like `wal_appends_total{store="fiji"}`
// into its base name and store label; ok is false for series without a
// store label.
func storeSeries(name string) (base, label string, ok bool) {
	i := strings.Index(name, `{store="`)
	if i < 0 || !strings.HasSuffix(name, `"}`) {
		return "", "", false
	}
	return name[:i], name[i+len(`{store="`) : len(name)-len(`"}`)], true
}
