package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
)

// inflightSaturated is the one saturated regime: 8 closed-loop calls in
// flight through one hrpc.Client. There is deliberately no regime between
// 1 and 8: 2–4 calls in flight leave the daemon CPU partially loaded, and
// a partially loaded CPU is where run-to-run spread comes from.
const inflightSaturated = 8

// windowSpec is one window of a pair.
type windowSpec struct {
	kind     seqKind
	n        int // ops, fixed: both commits under comparison do equal work
	inflight int // 1 (serial) or inflightSaturated
}

// plan is the pair of windows a workload runs six times. Op counts are
// for -seconds = runSeconds and scale with it.
func plan(workload string, scale float64) ([]windowSpec, error) {
	pair := func(kind seqKind, serial, saturated, multiple int) []windowSpec {
		return []windowSpec{
			{kind, roundTo(float64(serial)*scale, multiple), 1},
			{kind, roundTo(float64(saturated)*scale, multiple), inflightSaturated},
		}
	}
	switch workload {
	case "warm_resolve":
		return pair(seqHot, 2560, 17408, 64), nil
	case "cold_resolve":
		return pair(seqTenant, 896, 2688, 64), nil
	case "update_only":
		// A multiple of 512 flips journals a multiple of 1024 records, so
		// every window carries the same number of snapshots.
		return pair(seqFlip, 512, 2048, 512), nil
	case "update_mix":
		// Multiples of 16×512 ops, so the flips are multiples of 512; the
		// serial window is exempt (see the tests).
		return []windowSpec{
			{seqMix, roundTo(2048*scale, 512), 1},
			{seqMix, roundTo(8192*scale, flipEvery*512), inflightSaturated},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

func roundTo(x float64, m int) int {
	n := int(x/float64(m)+0.5) * m
	if n < m {
		n = m
	}
	return n
}

// windowResult is what one window measured.
type windowResult struct {
	spec       windowSpec
	traced     bool
	wall       time.Duration
	resolveLat []time.Duration // one per completed resolve
	updateLat  []time.Duration // one per acked Update RPC
	failed     int
	firstErr   error
	before     map[string]procSample // per layer, plus "client"; saturated windows only
	after      map[string]procSample
	ctrBefore  map[string]map[string]int64 // per layer /debug/hns, plus the harness's own; serial windows only
	ctrAfter   map[string]map[string]int64
}

// driver runs windows against one federation and keeps the shadow model
// the final read-back is compared with.
type driver struct {
	f       *federation
	tenants []string
	tr      *tracer

	shadowMu [hotContexts]sync.Mutex
	shadowB  [hotContexts]bool // true once the context maps onto nsB
	acked    atomic.Int64      // Update RPCs acknowledged, for the serial check
	serial0  uint32            // the meta zone's serial after set-up
}

func nsOf(b bool) string {
	if b {
		return nsB
	}
	return nsA
}

// update sends one Update RPC to the durable meta bindd and counts the
// ack. It is a client.update span under parent; with no parent (a ladder
// probe, which has its own span) it records none.
func (d *driver) update(ctx context.Context, opc uint32, rr bind.RR, parent uint32) (time.Duration, error) {
	var s uint32
	if parent != 0 {
		s = d.tr.begin("client.update", parent)
	}
	t0 := time.Now()
	_, err := d.f.meta.Update(ctx, metaZone, opc, rr)
	lat := time.Since(t0)
	d.tr.end(s)
	if err == nil {
		d.acked.Add(1)
	}
	return lat, err
}

// flip moves context i to the other name service: Add the new mapping,
// then Remove the old one matched by its data. Two acked, journaled
// updates; the zone's size is unchanged, and at no instant is the
// context unregistered.
func (d *driver) flip(ctx context.Context, i int, parent uint32, lats *[2]time.Duration) error {
	d.shadowMu[i].Lock()
	defer d.shadowMu[i].Unlock()
	cur := d.shadowB[i]
	add, err := core.ContextRecord(metaZone, hotContext(i), nsOf(!cur))
	if err != nil {
		return err
	}
	rem, err := core.ContextRecord(metaZone, hotContext(i), nsOf(cur))
	if err != nil {
		return err
	}
	if lats[0], err = d.update(ctx, bind.UpdateAdd, add, parent); err != nil {
		return fmt.Errorf("flip %s add: %w", hotContext(i), err)
	}
	if lats[1], err = d.update(ctx, bind.UpdateRemove, rem, parent); err != nil {
		return fmt.Errorf("flip %s remove: %w", hotContext(i), err)
	}
	d.shadowB[i] = !cur
	return nil
}

// runWindow executes the ops closed-loop with spec.inflight callers.
func (d *driver) runWindow(ctx context.Context, spec windowSpec, ops []op) windowResult {
	res := windowResult{spec: spec, traced: d.tr != nil && d.tr.on}
	var nRes, nUpd int
	for _, o := range ops {
		if o.kind == opFlip {
			nUpd += 2
		} else {
			nRes++
		}
	}
	res.resolveLat = make([]time.Duration, 0, nRes)
	res.updateLat = make([]time.Duration, 0, nUpd)

	var (
		mu   sync.Mutex // guards res under the saturated regime
		next atomic.Int64
		wg   sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			i := int(next.Add(1)) - 1
			if i >= len(ops) {
				return
			}
			o := ops[i]
			root := d.tr.begin("client.op", 0)
			var (
				err  error
				lat  time.Duration
				ulat [2]time.Duration
			)
			switch o.kind {
			case opResolveCtx, opResolveTenant:
				hctx := ""
				if o.kind == opResolveCtx {
					hctx = hotContext(o.ctx)
				} else {
					hctx = tenantContext(d.tenants[o.ctx])
				}
				t0 := time.Now()
				err = d.f.resolve(ctx, hctx, d.tr, root)
				lat = time.Since(t0)
			case opFlip:
				err = d.flip(ctx, o.ctx, root, &ulat)
			}
			d.tr.end(root)
			mu.Lock()
			switch {
			case err != nil:
				res.failed++
				if res.firstErr == nil {
					res.firstErr = err
				}
			case o.kind == opFlip:
				res.updateLat = append(res.updateLat, ulat[0], ulat[1])
			default:
				res.resolveLat = append(res.resolveLat, lat)
			}
			mu.Unlock()
		}
	}
	t0 := time.Now()
	wg.Add(spec.inflight)
	for w := 0; w < spec.inflight; w++ {
		go worker()
	}
	wg.Wait()
	res.wall = time.Since(t0)
	return res
}

// sampleAll reads the /proc counters of every daemon and of the harness.
func (d *driver) sampleAll() (map[string]procSample, error) {
	out := make(map[string]procSample, len(layers)+1)
	for l, dm := range d.f.daemons {
		s, err := sampleProc(dm.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("sampling %s: %w", l, err)
		}
		out[l] = s
	}
	s, err := sampleProc(selfPid)
	if err != nil {
		return nil, err
	}
	out["client"] = s
	return out, nil
}

// scrapeAll reads every daemon's /debug/hns.
func (d *driver) scrapeAll() (map[string]map[string]int64, error) {
	out := make(map[string]map[string]int64, len(layers))
	for l, dm := range d.f.daemons {
		m, err := scrape(dm.mAddr)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", l, err)
		}
		out[l] = m
	}
	out["client"] = ownCounters()
	return out, nil
}

// warm is the tail of set-up: two passes over the hot set, so every
// mapping the workloads expect warm is cached.
func (d *driver) warm(ctx context.Context) error {
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < hotContexts; i++ {
			if err := d.f.resolve(ctx, hotContext(i), nil, 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	var err error
	d.serial0, err = d.f.meta.Serial(ctx, metaZone)
	return err
}

// readBack compares the meta bindd with the shadow model: every hot
// context has exactly one record carrying the expected name
// service, and the zone's serial advanced by exactly the number of acked
// updates. Each mismatch counts as one failed op.
func (d *driver) readBack(ctx context.Context, r *report) {
	for i := 0; i < hotContexts; i++ {
		want, err := core.ContextRecord(metaZone, hotContext(i), nsOf(d.shadowB[i]))
		if err == nil {
			var rrs []bind.RR
			rrs, err = d.f.meta.Lookup(ctx, want.Name, bind.TypeHNSMeta)
			switch {
			case err != nil:
				err = fmt.Errorf("read-back %s: %w", want.Name, err)
			case len(rrs) != 1:
				err = fmt.Errorf("read-back %s: %d records, want 1", want.Name, len(rrs))
			case string(rrs[0].Data) != string(want.Data):
				err = fmt.Errorf("read-back %s: %q, want %q", want.Name, rrs[0].Data, want.Data)
			}
		}
		r.count(1, err)
	}
	serial, err := d.f.meta.Serial(ctx, metaZone)
	if got, want := int64(serial-d.serial0), d.acked.Load(); err == nil && got != want {
		err = fmt.Errorf("zone serial advanced by %d, want %d (the acked updates)", got, want)
	}
	r.count(1, err)
}
