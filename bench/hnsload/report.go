package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"hns/internal/metrics"
)

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the run's metric values and its oracle counts.
type report struct {
	cfg       config
	env       *env
	pinning   string
	seqHash   string
	values    map[string]float64
	attempted int
	failed    int
	firstErr  error
}

func newReport(cfg config, e *env, pinning, seqHash string) *report {
	return &report{cfg: cfg, env: e, pinning: pinning, seqHash: seqHash, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// count adds attempted ops to the oracle's tally; a non-nil err is one
// failed op, and the first of them is kept for the output.
func (r *report) count(attempted int, err error) {
	r.attempted += attempted
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// countWindow adds a window's ops and failures.
func (r *report) countWindow(w windowResult) {
	r.attempted += w.spec.n
	r.failed += w.failed
	if r.firstErr == nil {
		r.firstErr = w.firstErr
	}
}

// print writes the window table, every measured metric by name and
// unit, then the contract's JSON line. It returns the process exit code.
func (r *report) print(traced bool, windows []windowResult) int {
	fmt.Printf("hnsload workload=%s seed=%d seconds=%g trace=%d pinning=%s journal=%s ops_hash=%s\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, r.pinning, r.env.journal, r.seqHash)
	printWindows(windows)
	units := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.4f %s\n", n, r.values[n], units[n])
	}
	fmt.Printf("attempted=%d failed=%d\n", r.attempted, r.failed)
	if r.firstErr != nil {
		fmt.Printf("first failure: %v\n", r.firstErr)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "hnsload: metric %s was not measured\n", d.name)
			return 1
		}
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hnsload:", err)
		return 1
	}
	fmt.Println(string(line))
	if r.failed != 0 {
		return 1
	}
	return 0
}

// accountedOps is what a saturated window's CPU is divided by: resolves
// on the resolve workloads, acked updates on update_only, sequence ops
// (resolve or flip) on update_mix.
func accountedOps(w windowResult) int {
	switch w.spec.kind {
	case seqMix:
		return len(w.resolveLat) + len(w.updateLat)/2
	case seqFlip:
		return len(w.updateLat)
	}
	return len(w.resolveLat)
}

// fromWindows reduces the windows to metrics: per window first, then the
// median over the windows of a kind. Latencies come only from serial
// windows, throughput and CPU only from saturated ones.
func (r *report) fromWindows(ws []windowResult) {
	var (
		rp50, rp90, rp99, up50, up90, up99 []float64
		rRate, uRate                       []float64
		rp50Traced, up50Traced             []float64 // serial windows that recorded spans, kept apart
		serverCPU, clientCPU               []float64
		perProc                            = map[string][]float64{}
	)
	for _, w := range ws {
		r.countWindow(w)
		secs := w.wall.Seconds()
		if w.spec.inflight == 1 {
			if len(w.resolveLat) > 0 {
				p50 := percentile(w.resolveLat, 50)
				if w.traced {
					rp50Traced = append(rp50Traced, p50)
				} else {
					rp50 = append(rp50, p50)
					rp90 = append(rp90, percentile(w.resolveLat, 90))
					rp99 = append(rp99, percentile(w.resolveLat, 99))
				}
			}
			if len(w.updateLat) > 0 {
				p50 := percentile(w.updateLat, 50)
				if w.traced {
					up50Traced = append(up50Traced, p50)
				} else {
					up50 = append(up50, p50)
					up90 = append(up90, percentile(w.updateLat, 90))
					up99 = append(up99, percentile(w.updateLat, 99))
				}
			}
			continue
		}
		if len(w.resolveLat) > 0 {
			rRate = append(rRate, float64(len(w.resolveLat))/secs)
		}
		// On update_mix the updates are a fixed 2 in 15 of the resolves;
		// their rate would be the resolve rate over again.
		if w.spec.kind == seqFlip {
			uRate = append(uRate, float64(len(w.updateLat))/secs)
		}
		ops := float64(accountedOps(w))
		var sum float64
		for _, l := range layers {
			b, a := w.before[l], w.after[l]
			cpu := float64(a.cpuNS-b.cpuNS) / 1e3 / ops
			sum += cpu
			if l == idleLayer {
				continue
			}
			perProc[l+".cpu_us_per_op"] = append(perProc[l+".cpu_us_per_op"], cpu)
			perProc[l+".rw_syscalls_per_op"] = append(perProc[l+".rw_syscalls_per_op"], float64(a.syscalls-b.syscalls)/ops)
			perProc[l+".ctxsw_per_op"] = append(perProc[l+".ctxsw_per_op"], float64(a.ctxsw-b.ctxsw)/ops)
		}
		serverCPU = append(serverCPU, sum)
		clientCPU = append(clientCPU, float64(w.after["client"].cpuNS-w.before["client"].cpuNS)/1e3/ops)
	}
	r.set("resolve_p50_us", median(rp50))
	r.set("resolve_p90_us", median(rp90))
	r.set("client.resolve_p99_us", median(rp99))
	r.set("resolve_ops_per_s", median(rRate))
	r.set("update_p50_us", median(up50))
	r.set("update_p90_us", median(up90))
	r.set("client.update_p99_us", median(up99))
	r.set("update_ops_per_s", median(uRate))
	r.set("server_cpu_us_per_op", median(serverCPU))
	r.set("client.cpu_us_per_op", median(clientCPU))
	for name, v := range perProc {
		r.set(name, median(v))
	}
	// The spread of the window values the throughput's median was taken
	// over: how steady the run itself was.
	if len(rRate) > 0 {
		r.set("client.window_cv_pct", cvPct(rRate))
	} else {
		r.set("client.window_cv_pct", cvPct(uRate))
	}

	// Tracing overhead: the traced serial windows against the untraced
	// ones of the same run, on the workload's own op.
	over := 0.0
	plain, with := rp50, rp50Traced
	if len(rp50) == 0 {
		plain, with = up50, up50Traced
	}
	if m := median(plain); m > 0 && len(with) > 0 {
		over = 100 * (median(with) - m) / m
	}
	r.set("trace.overhead_pct", over)

	r.fromCounters(ws)
}

// printWindows lists what each window measured, so a reader can see how
// steady the run was behind its medians.
func printWindows(ws []windowResult) {
	kinds := map[seqKind]string{seqHot: "resolve-hot", seqTenant: "resolve-tenant", seqFlip: "flip-hot", seqMix: "mix"}
	fmt.Printf("  %3s %-15s %8s %7s %8s %10s %10s %10s %10s %10s %10s\n",
		"win", "kind", "inflight", "ops", "wall_s", "res_p50", "res_p90", "upd_p50", "upd_p90", "ops_per_s", "daemon_cpu_s")
	for i, w := range ws {
		cpu := ""
		if w.before != nil {
			for _, l := range layers {
				cpu += fmt.Sprintf(" %s=%.3f", l, float64(w.after[l].cpuNS-w.before[l].cpuNS)/1e9)
			}
		}
		fmt.Printf("  %3d %-15s %8d %7d %8.3f %10.1f %10.1f %10.1f %10.1f %10.0f %s\n",
			i, kinds[w.spec.kind], w.spec.inflight, w.spec.n, w.wall.Seconds(),
			percentile(w.resolveLat, 50), percentile(w.resolveLat, 90),
			percentile(w.updateLat, 50), percentile(w.updateLat, 90),
			float64(len(w.resolveLat)+len(w.updateLat))/w.wall.Seconds(), cpu)
	}
}

// sumPrefix adds up every series of m whose name starts with prefix
// (one metric across all its label sets).
func sumPrefix(m map[string]int64, prefix string) int64 {
	var n int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// ownCounters is the harness's own registry in the shape scrape returns:
// its hrpc client is a participant of the federation like any daemon's.
func ownCounters() map[string]int64 {
	snap := metrics.Default().Snapshot()
	out := make(map[string]int64, len(snap.Counters))
	for _, s := range snap.Counters {
		out[s.Name] = s.Value
	}
	return out
}

// fromCounters turns the /debug/hns deltas over the serial windows into
// per-op ratios, an op being a resolve or an acked update. Serial windows
// only: with one call in flight the counts repeat exactly from run to run.
func (r *report) fromCounters(ws []windowResult) {
	var (
		ops, resolves                   float64
		hits, misses, fetches           int64
		calls, frames, bytes            int64
		fsyncs, serverUpdates, notifies int64
	)
	for _, w := range ws {
		if w.ctrBefore == nil {
			continue
		}
		delta := func(layer, prefix string) int64 {
			return sumPrefix(w.ctrAfter[layer], prefix) - sumPrefix(w.ctrBefore[layer], prefix)
		}
		ops += float64(len(w.resolveLat) + len(w.updateLat))
		resolves += float64(len(w.resolveLat))
		for layer := range w.ctrAfter {
			calls += delta(layer, "hrpc_client_calls_total")
			frames += delta(layer, "transport_frames_total")
			bytes += delta(layer, "transport_bytes_total")
		}
		hits += delta("core", `cache_hits_total{cache="meta"}`)
		misses += delta("core", `cache_misses_total{cache="meta"}`)
		fetches += delta("core", `bind_client_lookups_total{iface="hrpc",result="ok"}`)
		fsyncs += delta("bind_meta", "wal_fsync_total")
		serverUpdates += delta("bind_meta", `bind_updates_total{rcode="NOERROR"}`)
		notifies += delta("bind_meta", "push_notify_sent_total")
	}
	ratio := func(num int64, den float64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / den
	}
	r.set("transport.frames_per_op", ratio(frames, ops))
	r.set("transport.bytes_per_op", ratio(bytes, ops))
	r.set("hrpc.client_calls_per_op", ratio(calls, ops))
	r.set("cache.meta_hit_ratio", ratio(hits, float64(hits+misses)))
	r.set("core.meta_fetches_per_op", ratio(fetches, resolves))
	r.set("store.fsyncs_per_update", ratio(fsyncs, float64(serverUpdates)))
	r.set("push.notifies_per_update", ratio(notifies, float64(serverUpdates)))
}
