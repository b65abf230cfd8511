package main

import (
	"flag"
	"fmt"
	"sort"
)

// cmdStore fetches a daemon's /debug/hns snapshot and renders the
// durable-store series — WAL appends and fsyncs, checkpoints, recovery —
// grouped per store label. A bindd started with -data-dir and -metrics
// is the usual target.
func cmdStore(e *env, args []string) error {
	fs := flag.NewFlagSet("store", flag.ExitOnError)
	from := fs.String("from", "127.0.0.1:5390", "daemon metrics address (-metrics value)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	snap, err := fetchSnapshot(*from)
	if err != nil {
		return err
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
		if base, store := storeSeries(c.Name); store != "" {
			view(store).counters[base] = c.Value
		}
	}
	for _, g := range snap.Gauges {
		if base, store := storeSeries(g.Name); store != "" {
			view(store).gauges[base] = g.Value
		}
	}
	if len(stores) == 0 {
		fmt.Fprintln(e.out, "no durable-store series; is the daemon running with -data-dir?")
		return nil
	}

	labels := make([]string, 0, len(stores))
	for l := range stores {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for i, label := range labels {
		if i > 0 {
			fmt.Fprintln(e.out)
		}
		v := stores[label]
		fmt.Fprintf(e.out, "store %q\n", label)
		fmt.Fprintf(e.out, "  wal:       %d appends, %d fsyncs, last lsn %d, %d segments, %d bytes since checkpoint\n",
			v.counters["wal_appends_total"], v.counters["wal_fsync_total"],
			v.gauges["store_wal_last_lsn"], v.gauges["store_wal_segments"],
			v.gauges["store_wal_bytes_since_checkpoint"])
		fmt.Fprintf(e.out, "  snapshots: %d written, %d failed, covering lsn %d\n",
			v.counters["snapshot_total"], v.counters["snapshot_errors_total"],
			v.gauges["store_snapshot_lsn"])
		fmt.Fprintf(e.out, "  recovery:  %d records replayed, %d torn bytes dropped, %d ms\n",
			v.gauges["store_recovery_replayed"], v.gauges["store_recovery_torn_bytes"],
			v.gauges["store_recovery_ms"])
		for _, h := range snap.Histograms {
			if base, store := storeSeries(h.Name); store == label && base == "wal_fsync_seconds" {
				fmt.Fprintf(e.out, "  fsync:     n=%d mean=%.3gms p99≤%gms\n",
					h.Count, h.Mean(), h.Quantile(0.99))
			}
		}
	}
	return nil
}

// storeSeries splits a series name like `wal_appends_total{store="fiji"}`
// into its base name and store label ("" for series without one).
func storeSeries(name string) (base, store string) {
	base, labels, _ := splitSeries(name)
	return base, label(labels, "store")
}
