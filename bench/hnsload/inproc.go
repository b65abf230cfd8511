package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hns/internal/admission"
	"hns/internal/bind"
	"hns/internal/cache"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/shard"
	"hns/internal/simtime"
	"hns/internal/store"
)

// In-process probes: fixed iteration counts over public package
// functions, timed in the harness. They price the pieces no RPC probe
// can isolate (a cache hit, an admission decision, a zone parse).

// sink keeps probe results live.
var sink any

// nsPerOp times n calls of fn.
func nsPerOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func inProcess(e *env, pop *population, r *report) error {
	// marshal: the FindNSM request, XDR-encoded and decoded again.
	xdr, err := marshal.Lookup("xdr")
	if err != nil {
		return err
	}
	argT := marshal.TStruct(marshal.TString, marshal.TString, marshal.TString)
	arg := marshal.StructV(marshal.Str("h17"), marshal.Str(target), marshal.Str("hostaddress"))
	roundtrip := func(int) {
		b, err := marshal.Marshal(xdr, arg, argT)
		if err == nil {
			sink, err = marshal.Unmarshal(xdr, b, argT)
		}
		if err != nil {
			panic(err) // a fixed, valid value: only a bug fails here
		}
	}
	r.set("marshal.xdr_roundtrip_ns", nsPerOp(200_000, roundtrip))
	var ms0, ms1 runtime.MemStats
	const allocRuns = 10_000
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocRuns; i++ {
		roundtrip(i)
	}
	runtime.ReadMemStats(&ms1)
	r.set("marshal.xdr_allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/allocRuns)

	// cache: the TTL cache under the meta-cache and the NSM caches.
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("h%d.ctx.hns", i)
	}
	c := cache.New[string](nil, 0)
	r.set("cache.put_ns", nsPerOp(400_000, func(i int) { c.Put(keys[i%len(keys)], "ns=bind-cs", time.Hour) }))
	r.set("cache.get_hit_ns", nsPerOp(1_000_000, func(i int) { sink, _ = c.Get(keys[i%len(keys)]) }))

	// admission: the gateway's decision at -max-inflight 64.
	ctl := admission.New(admission.Config{MaxInflight: 64, Metrics: metrics.Discard, Server: "probe"})
	r.set("admission.admit_ns", nsPerOp(1_000_000, func(int) {
		if ctl.Admit("client", admission.High) == nil {
			ctl.Done()
		}
	}))

	r.set("names.parse_ns", nsPerOp(1_000_000, func(i int) { sink, _ = names.Parse("hostaddr-bind!" + target) }))

	m := shard.Map{Epoch: 1, Members: []shard.Member{{ID: "s0", Addr: "a"}, {ID: "s1", Addr: "b"}, {ID: "s2", Addr: "c"}, {ID: "s3", Addr: "d"}}}
	r.set("shard.owner_ns", nsPerOp(1_000_000, func(i int) { sink, _ = m.Owner(keys[i%len(keys)]) }))

	// bind: parse the generated zone file, load it, look names up in it.
	data, err := os.ReadFile(e.metaZone)
	if err != nil {
		return err
	}
	t0 := time.Now()
	rrs, err := bind.ParseZoneFile(bytes.NewReader(data))
	if err != nil {
		return err
	}
	per100k := 1e5 / float64(len(rrs))
	r.set("bind.parse_zone_ms_per_100k", float64(time.Since(t0))/1e6*per100k)

	// store: a durable server over the same zone on tmpfs; one forced
	// snapshot is what every 1024th journaled record pays.
	dir := filepath.Join(e.shmDir, "probe-store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fs, err := store.DirFS(dir)
	if err != nil {
		return err
	}
	dur, err := bind.OpenDurable(bind.DurableConfig{FS: fs})
	if err != nil {
		return err
	}
	defer dur.Close()
	srv := bind.NewServer("probe", simtime.Default())
	z, err := bind.NewZone(metaZone, true)
	if err != nil {
		return err
	}
	if err := srv.AddZone(z); err != nil {
		return err
	}
	if err := z.Replace(rrs, 1); err != nil {
		return err
	}
	dur.Attach(srv)
	var snaps []float64
	for i := 0; i < 3; i++ {
		t0 = time.Now()
		if err := dur.Snapshot(); err != nil {
			return err
		}
		snaps = append(snaps, float64(time.Since(t0))/1e6*per100k)
	}
	r.set("store.snapshot_ms_per_100k", median(snaps))

	lookups := make([]string, 4096)
	for i := range lookups {
		lookups[i] = tenantContext(pop.tenants[(i*7919)%len(pop.tenants)]) + ".ctx." + metaZone
	}
	r.set("bind.zone_lookup_ns", nsPerOp(400_000, func(i int) {
		got, err := z.Lookup(lookups[i%len(lookups)], bind.TypeHNSMeta)
		if err != nil {
			panic(err) // every name is in the zone just loaded
		}
		sink = got
	}))

	// store: one fsync-always WAL append, on tmpfs and on the checkout's
	// disk. The second is the device cost kept out of every end-to-end
	// number; it is reported so a reader can see what was kept out.
	payload := bytes.Repeat([]byte("x"), 96)
	for _, w := range []struct {
		metric, dir string
		n           int
	}{
		{"store.wal_append_sync_tmpfs_us", filepath.Join(e.shmDir, "probe-wal"), 2000},
		{"store.wal_append_sync_disk_us", filepath.Join(e.runDir, "probe-wal"), 200},
	} {
		if err := os.MkdirAll(w.dir, 0o755); err != nil {
			return err
		}
		fs, err := store.DirFS(w.dir)
		if err != nil {
			return err
		}
		log, err := store.OpenLog(fs, store.LogOptions{Sync: store.SyncAlways})
		if err != nil {
			return err
		}
		lat := make([]time.Duration, 0, w.n)
		for i := 0; i < w.n; i++ {
			t0 := time.Now()
			if _, err := log.Append(payload); err != nil {
				log.Close()
				return err
			}
			lat = append(lat, time.Since(t0))
		}
		if err := log.Close(); err != nil {
			return err
		}
		os.RemoveAll(w.dir)
		r.set(w.metric, percentile(lat, 50))
	}
	return nil
}
