package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/push"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// The probe ladder: serial timed calls, each rung into one daemon's
// public RPC surface on the warm federation. A rung's "self" is its p50
// minus the p50 of the rung below it, so the table reads as where one
// resolve's microseconds go.

const (
	// ladderCalls is the sample count of a rung.
	ladderCalls = 2000
	// ladderTenantBase is the first tenant reserved for the ladder's cold
	// rung; cold_resolve's windows stay below it.
	ladderTenantBase = tenantCount - ladderColdCalls
	ladderColdCalls  = 1024
	ladderBatches    = 200
	// The ladder runs after the windows and splits the hot set: its warm
	// rungs read h0..h255, its update rungs flip h256..h511, so no NOTIFY
	// of the ladder's own makes a warm rung pay a meta fetch.
	ladderWarm = hotContexts / 2

	echoProgram uint32 = 399999
)

// echoMain is the `hnsload -echo <tcp> <udp> <hrpc>` child: the
// bench-hosted transport listeners and hrpc.Server the lowest rungs call.
// It runs pinned on the daemon CPU like every other server, so those
// rungs cross CPUs exactly as the calls into the daemons do.
func echoMain(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("-echo wants <tcp addr> <udp addr> <hrpc addr>")
	}
	net := transport.NewNetwork(simtime.Default())
	echo := func(ctx context.Context, req []byte) ([]byte, error) { return req, nil }
	for i, name := range []string{"tcp-net", "udp-net"} {
		tr, err := net.Transport(name)
		if err != nil {
			return err
		}
		ln, err := tr.Listen(args[i], echo)
		if err != nil {
			return err
		}
		defer ln.Close()
	}
	ln, _, err := hrpc.Serve(net, hrpc.NewServer("echo", echoProgram, 1), hrpc.SuiteRawNet, "echo", args[2])
	if err != nil {
		return err
	}
	defer ln.Close()
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	return nil
}

// probe is one rung of the ladder.
type probe struct {
	metric string
	n      int // calls; 0 means ladderCalls
	per    int // items one call carries; its latency is divided by it (0 means 1)
	fn     func(i int) error
}

// rungs times the probes' calls interleaved — call i of every probe,
// then call i+1 — so a drift of the machine during the ladder lands on
// every rung alike and the differences between rungs stay meaningful.
// Each call is a span under its rung's span; each rung's p50 is stored
// under its metric.
func (d *driver) rungs(r *report, probes ...probe) {
	lats := make([][]time.Duration, len(probes))
	roots := make([]uint32, len(probes))
	most := 0
	for k := range probes {
		if probes[k].n == 0 {
			probes[k].n = ladderCalls
		}
		if probes[k].n > most {
			most = probes[k].n
		}
		lats[k] = make([]time.Duration, 0, probes[k].n)
		roots[k] = d.tr.begin("ladder:"+probes[k].metric, 0)
	}
	for i := 0; i < most; i++ {
		for k, p := range probes {
			if i >= p.n {
				continue
			}
			s := d.tr.begin(p.metric, roots[k])
			t0 := time.Now()
			err := p.fn(i)
			lat := time.Since(t0)
			if p.per > 1 {
				lat /= time.Duration(p.per)
			}
			lats[k] = append(lats[k], lat)
			d.tr.end(s)
			if err != nil {
				err = fmt.Errorf("%s: %w", p.metric, err)
			}
			r.count(1, err)
		}
	}
	for k, p := range probes {
		d.tr.end(roots[k])
		r.set(p.metric, percentile(lats[k], 50))
	}
}

func ladder(ctx context.Context, e *env, d *driver, r *report) error {
	f := d.f
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tcpAddrs, udpAddrs, err := freePorts(2, 1)
	if err != nil {
		return err
	}
	eaddr := [3]string{tcpAddrs[0], udpAddrs[0], tcpAddrs[1]} // tcp echo, udp echo, hrpc
	echo, err := e.spawn.start("echo", self, filepath.Join(e.runDir, "echo.log"), "-echo", eaddr[0], eaddr[1], eaddr[2])
	if err != nil {
		return err
	}
	defer echo.stop()
	deadline := time.Now().Add(30 * time.Second)
	echo.ready = eaddr[2]
	if err := echo.waitReady(deadline); err != nil {
		return err
	}
	if err := echo.waitUDP(eaddr[1], deadline); err != nil {
		return err
	}
	if _, err := verifyPinning(append([]*daemon{echo}, f.order...)); err != nil {
		return err
	}

	payload := []byte("hnsload!")
	checkEcho := func(b []byte, err error) error {
		if err == nil && string(b) != string(payload) {
			err = fmt.Errorf("echo returned %q", b)
		}
		return err
	}

	// transport: one framed exchange, nothing above it.
	tcp, err := f.net.Transport("tcp-net")
	if err != nil {
		return err
	}
	tcpConn, err := tcp.Dial(ctx, eaddr[0])
	if err != nil {
		return err
	}
	defer tcpConn.Close()
	udp, err := f.net.Transport("udp-net")
	if err != nil {
		return err
	}
	udpConn, err := udp.Dial(ctx, eaddr[1])
	if err != nil {
		return err
	}
	defer udpConn.Close()

	// hrpc: the null procedure of a bench-hosted server in the same child,
	// so the difference to the transport rung is the framing alone.
	rpc := hrpc.NewClient(f.net)
	defer rpc.Close()
	echoB := hrpc.SuiteRawNet.Bind("echo", eaddr[2], echoProgram, 1)

	// bind: the meta bindd's HRPC lookup, pooled and on a fresh
	// connection per call — the latter is what hnsd pays per miss.
	hotName := func(i int) string { return hotContext(i%hotContexts) + ".ctx." + metaZone }
	lookup := func(c *bind.HRPCClient) func(int) error {
		return func(i int) error {
			rrs, err := c.Lookup(ctx, hotName(i), bind.TypeHNSMeta)
			if err == nil && len(rrs) == 0 {
				err = fmt.Errorf("no records for %s", hotName(i))
			}
			return err
		}
	}
	freshRPC := hrpc.NewClient(f.net)
	freshRPC.FreshConn = true
	defer freshRPC.Close()

	// The conventional BIND and the NSM in front of it.
	std := bind.NewStdClient(f.net, "udp-net", e.a.appStd)
	defer std.Close()
	nsmB := hrpc.SuiteSunRPCNet.Bind(nsmHost, e.a.nsm, qclass.ProgHostAddress, qclass.NSMVersion)
	fiji := names.Name{Context: baseContext, Individual: target}

	// core and gateway: FindNSM at hnsd directly and through hnsgw.
	direct := core.NewRemoteHNS(rpc, hnsBinding(e.a.hnsd))
	find := func(h *core.RemoteHNS, hctx string) error {
		b, err := h.FindNSM(ctx, names.Name{Context: hctx, Individual: target}, qclass.HostAddress)
		if err == nil && b.Addr != e.a.nsm {
			err = fmt.Errorf("FindNSM %s designates %s, want the NSM at %s", hctx, b.Addr, e.a.nsm)
		}
		return err
	}
	// The workload's own flips may have left hot contexts invalidated;
	// one untimed pass makes the warm rungs warm.
	for i := 0; i < ladderWarm; i++ {
		if err := find(direct, hotContext(i)); err != nil {
			return err
		}
	}
	batch := make([]core.NameQuery, core.MaxFindBatch)

	// Updates: the same Update RPC into the app bindd (memory only) and
	// the meta bindd (journaled); the difference is the journal. The
	// durable rung walks the ladder's flip half one half-flip per call.
	app := bind.NewHRPCClient(rpc, hrpc.SuiteRawNet.Bind("fiji", e.a.appHRPC, bind.HRPCProgram, bind.HRPCVersion))
	appRR := bind.A("probe."+appZone, "127.0.0.2", 600)
	halfFlip := func(i int) error {
		c := ladderWarm + (i/2)%ladderWarm
		if i%2 == 0 {
			rr, err := core.ContextRecord(metaZone, hotContext(c), nsOf(!d.shadowB[c]))
			if err == nil {
				_, err = d.update(ctx, bind.UpdateAdd, rr, 0)
			}
			return err
		}
		rr, err := core.ContextRecord(metaZone, hotContext(c), nsOf(d.shadowB[c]))
		if err == nil {
			if _, err = d.update(ctx, bind.UpdateRemove, rr, 0); err == nil {
				d.shadowB[c] = !d.shadowB[c]
			}
		}
		return err
	}

	d.rungs(r,
		probe{metric: "transport.tcp_call_p50_us", fn: func(int) error { return checkEcho(tcpConn.Call(ctx, payload)) }},
		probe{metric: "transport.tcp_dial_call_p50_us", fn: func(int) error {
			c, err := tcp.Dial(ctx, eaddr[0])
			if err != nil {
				return err
			}
			defer c.Close()
			return checkEcho(c.Call(ctx, payload))
		}},
		probe{metric: "transport.udp_call_p50_us", fn: func(int) error { return checkEcho(udpConn.Call(ctx, payload)) }},
		probe{metric: "hrpc.null_call_p50_us", fn: func(int) error {
			_, err := rpc.Call(ctx, echoB, hrpc.NullProc, marshal.StructV())
			return err
		}},
		probe{metric: "bind.hrpc_lookup_p50_us", fn: lookup(f.meta)},
		probe{metric: "bind.hrpc_lookup_fresh_p50_us", fn: lookup(bind.NewHRPCClient(freshRPC, metaBinding(e.a.metaHRPC)))},
		probe{metric: "bind.std_lookup_p50_us", fn: func(int) error {
			rrs, err := std.Lookup(ctx, target, bind.TypeA)
			if err == nil && (len(rrs) != 1 || string(rrs[0].Data) != targetAddr) {
				err = fmt.Errorf("std lookup of %s: %v", target, rrs)
			}
			return err
		}},
		probe{metric: "nsm.resolve_host_p50_us", fn: func(int) error {
			got, err := nsm.CallResolveHost(ctx, rpc, nsmB, fiji)
			if err == nil && got != targetAddr {
				err = fmt.Errorf("nsm returned %q", got)
			}
			return err
		}},
		probe{metric: "core.findnsm_warm_p50_us", fn: func(i int) error { return find(direct, hotContext(i%ladderWarm)) }},
		probe{metric: "core.findnsm_cold_p50_us", n: ladderColdCalls, fn: func(i int) error {
			return find(direct, tenantContext(d.tenants[ladderTenantBase+i]))
		}},
		probe{metric: "core.batch64_per_name_p50_us", n: ladderBatches, per: len(batch), fn: func(n int) error {
			for i := range batch {
				batch[i] = core.NameQuery{
					Name:       names.Name{Context: hotContext((n*len(batch) + i) % ladderWarm), Individual: target},
					QueryClass: qclass.HostAddress,
				}
			}
			res, err := direct.FindNSMBatch(ctx, batch)
			for _, fr := range res {
				if err == nil {
					err = fr.Err
				}
			}
			return err
		}},
		probe{metric: "gateway.findnsm_warm_p50_us", fn: func(i int) error { return find(f.finder, hotContext(i%ladderWarm)) }},
		probe{metric: "bind.update_mem_p50_us", fn: func(i int) error {
			opc := uint32(bind.UpdateAdd)
			if i%2 == 1 {
				opc = bind.UpdateRemove
			}
			_, err := app.Update(ctx, appZone, opc, appRR)
			return err
		}},
		probe{metric: "bind.update_durable_p50_us", fn: halfFlip},
	)
	// Self times: each rung against the one below it. The NSM keeps its
	// result for ten minutes, so in steady state it answers without asking
	// BIND, and its self time is taken against the bare UDP exchange.
	for _, s := range []struct{ self, rung, below string }{
		{"hrpc.self_p50_us", "hrpc.null_call_p50_us", "transport.tcp_call_p50_us"},
		{"nsm.self_p50_us", "nsm.resolve_host_p50_us", "transport.udp_call_p50_us"},
		{"core.warm_self_p50_us", "core.findnsm_warm_p50_us", "hrpc.null_call_p50_us"},
		{"gateway.self_p50_us", "gateway.findnsm_warm_p50_us", "core.findnsm_warm_p50_us"},
		{"store.journal_self_p50_us", "bind.update_durable_p50_us", "bind.update_mem_p50_us"},
	} {
		r.set(s.self, r.values[s.rung]-r.values[s.below])
	}

	if err := d.notifyLag(ctx, r); err != nil {
		return err
	}
	return d.diskWindow(ctx, e, r)
}

// notifyLag measures, with a bench-side subscriber, how long after an
// update is issued its NOTIFY reaches a subscriber. (The server fans out
// before it replies, so measured from the ack the lag would be negative.)
func (d *driver) notifyLag(ctx context.Context, r *report) error {
	// One flip is two notifications, collected before the next flip is
	// issued; the extra slots keep OnNotify from ever blocking the
	// connection's reader.
	seen := make(chan time.Time, 4)
	sub := d.f.meta.Subscribe(bind.SubscribeConfig{
		Zone: metaZone,
		OnNotify: func(push.Notification) {
			select {
			case seen <- time.Now():
			default:
			}
		},
	})
	defer sub.Close()
	deadline := time.Now().Add(10 * time.Second)
	for !sub.Active() {
		if sub.Degraded() || time.Now().After(deadline) {
			return fmt.Errorf("bench subscriber could not subscribe to the meta bindd")
		}
		<-time.After(time.Millisecond)
	}
	const n = ladderCalls / 4
	lags := make([]time.Duration, 0, 2*n)
	var flipLat [2]time.Duration
	root := d.tr.begin("ladder:push.notify_lag_p50_us", 0)
	defer d.tr.end(root)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := d.flip(ctx, ladderWarm+i%ladderWarm, root, &flipLat)
		r.count(1, err)
		if err != nil {
			continue
		}
		// Both notifications of the flip have been sent by the time the
		// second ack is back; collect them.
		for k := 0; k < 2; k++ {
			select {
			case at := <-seen:
				sent := t0
				if k == 1 {
					sent = t0.Add(flipLat[0])
				}
				lags = append(lags, at.Sub(sent))
			case <-time.After(time.Second):
				r.count(0, fmt.Errorf("no NOTIFY within a second of an acked update"))
			}
		}
	}
	r.set("push.notify_lag_p50_us", percentile(lags, 50))
	return nil
}

// diskWindow is the one place device flush time is let in: a sixth
// bindd journaling to the checkout's real disk takes one saturated
// window of flips. Its zone is the hot contexts only, so the
// window prices the fsync and not the snapshot of a quarter of a
// million records. Too noisy to gate; a group-commit change quotes it.
func (d *driver) diskWindow(ctx context.Context, e *env, r *report) error {
	var rrs []bind.RR
	for i := 0; i < hotContexts; i++ {
		rr, err := core.ContextRecord(metaZone, hotContext(i), nsA)
		if err != nil {
			return err
		}
		rrs = append(rrs, rr)
	}
	data, err := zoneFile(rrs)
	if err != nil {
		return err
	}
	zone := filepath.Join(e.runDir, "disk.zone")
	if err := os.WriteFile(zone, data, 0o644); err != nil {
		return err
	}
	tcpAddrs, _, err := freePorts(2, 0)
	if err != nil {
		return err
	}
	addr, maddr := tcpAddrs[0], tcpAddrs[1]
	dm, err := e.spawn.start("bind_disk", filepath.Join(e.binDir, "bindd"), filepath.Join(e.runDir, "bind_disk.log"),
		"-host", "rainier", "-zone", metaZone, "-update", "-records", zone,
		"-data-dir", filepath.Join(e.runDir, "disk-journal"), "-push", "-hrpc", addr, "-std", "", "-metrics", maddr)
	if err != nil {
		return err
	}
	defer dm.stop()
	dm.ready = addr
	if err := dm.waitReady(time.Now().Add(30 * time.Second)); err != nil {
		return err
	}
	rpc := hrpc.NewClient(d.f.net)
	defer rpc.Close()
	disk := &driver{f: &federation{meta: bind.NewHRPCClient(rpc, metaBinding(addr))}}
	spec := windowSpec{seqFlip, 512, inflightSaturated}
	w := disk.runWindow(ctx, spec, opSequence(e.seed, spec.kind, 1<<20, spec.n, 0))
	r.countWindow(w)
	r.set("store.disk_update_ops_per_s", float64(len(w.updateLat))/w.wall.Seconds())
	return nil
}
