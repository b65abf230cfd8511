package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// layers are the five daemons, in the order they are reported.
var layers = []string{"gateway", "core", "bind_meta", "bind_app", "nsm"}

// idleLayer is the one daemon no window makes work: nsmd keeps a resolved
// address for ten minutes (its default), so after the first resolve the
// app bindd behind it is never asked again. It is accounted for memory
// only; the ladder's bind.std_lookup rung prices what an NSM miss costs.
const idleLayer = "bind_app"

// addrs are the endpoints of one federation. They are picked once per
// run (bind :0, close, pass on) and reused by every set-up of the run, so
// the generated zone file — which carries the NSM's port — is written once.
type addrs struct {
	metaHRPC, appHRPC, appStd, nsm, hnsd, gw string
	metrics                                  map[string]string // layer → -metrics address
}

func pickAddrs() (*addrs, error) {
	tcp, udp, err := freePorts(4+len(layers), 2)
	if err != nil {
		return nil, err
	}
	a := &addrs{
		metaHRPC: tcp[0], appHRPC: tcp[1], hnsd: tcp[2], gw: tcp[3],
		appStd: udp[0], nsm: udp[1],
		metrics: make(map[string]string),
	}
	for i, l := range layers {
		a.metrics[l] = tcp[4+i]
	}
	return a, nil
}

// federation is one running set of daemons plus the clients that drive it.
type federation struct {
	daemons map[string]*daemon
	order   []*daemon
	dataDir string // the durable meta bindd's -data-dir

	net     *transport.Network
	rpc     *hrpc.Client // FindNSM via the gateway, and the NSM calls
	finder  *core.RemoteHNS
	meta    *bind.HRPCClient // the meta bindd, over metaRPC's pooled connection
	metaRPC *hrpc.Client
}

// spawner starts daemons on the harness's main thread: Pdeathsig fires
// when the *thread* that forked exits, and the main thread is the one
// thread that lives exactly as long as the process.
type spawner chan spawnReq

type spawnReq struct {
	layer, bin, log string
	args            []string
	reply           chan spawnRes
}

type spawnRes struct {
	d   *daemon
	err error
}

func (s spawner) start(layer, bin, log string, args ...string) (*daemon, error) {
	req := spawnReq{layer, bin, log, args, make(chan spawnRes, 1)}
	s <- req
	res := <-req.reply
	return res.d, res.err
}

// serve runs on the main goroutine until the channel is closed.
func (s spawner) serve() {
	for req := range s {
		d, err := startDaemon(req.layer, req.bin, req.log, req.args...)
		req.reply <- spawnRes{d, err}
	}
}

// env is what every set-up of a run shares.
type env struct {
	binDir   string // where the daemon binaries are
	runDir   string // zone files, logs, the real-disk journal (inside the checkout)
	shmDir   string // journal directory root: tmpfs, or runDir when there is none
	journal  string // "tmpfs" or "disk", for the output
	spawn    spawner
	a        *addrs
	metaZone string // path of the generated meta zone file
	appZone  string
	setups   int
	seed     int64
}

// newFederation spawns the daemons, waits for each to serve, and connects
// the clients. Everything here is inside setup_s.
func (e *env) newFederation() (f *federation, err error) {
	e.setups++
	f = &federation{daemons: make(map[string]*daemon)}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	f.dataDir = filepath.Join(e.shmDir, fmt.Sprintf("meta-%d", e.setups))
	logp := func(l string) string { return filepath.Join(e.runDir, fmt.Sprintf("%s-%d.log", l, e.setups)) }
	start := func(layer, bin, ready string, args ...string) error {
		args = append(args, "-metrics", e.a.metrics[layer])
		d, err := e.spawn.start(layer, filepath.Join(e.binDir, bin), logp(layer), args...)
		if err != nil {
			return fmt.Errorf("starting %s: %w", bin, err)
		}
		d.ready, d.mAddr = ready, e.a.metrics[layer]
		f.daemons[layer] = d
		f.order = append(f.order, d)
		return nil
	}
	deadline := time.Now().Add(60 * time.Second)

	if err = start("bind_meta", "bindd", e.a.metaHRPC,
		"-host", "tahoma", "-zone", metaZone, "-update", "-records", e.metaZone,
		"-data-dir", f.dataDir, "-push", "-hrpc", e.a.metaHRPC, "-std", ""); err != nil {
		return f, err
	}
	if err = start("bind_app", "bindd", e.a.appHRPC,
		"-host", "fiji", "-zone", appZone, "-update", "-records", e.appZone,
		"-hrpc", e.a.appHRPC, "-std", e.a.appStd); err != nil {
		return f, err
	}
	if err = f.daemons["bind_app"].waitReady(deadline); err != nil {
		return f, err
	}
	if err = f.daemons["bind_app"].waitUDP(e.a.appStd, deadline); err != nil {
		return f, err
	}
	if err = start("nsm", "nsmd", "",
		"-host", "june", "-type", "hostaddr-bind", "-ns", nsA,
		"-bind-std", e.a.appStd, "-addr", e.a.nsm); err != nil {
		return f, err
	}
	if err = f.daemons["nsm"].waitUDP(e.a.nsm, deadline); err != nil {
		return f, err
	}
	// hnsd subscribes to the meta bindd's push plane at start; started
	// before its peer serves it would sit out a redial backoff.
	if err = f.daemons["bind_meta"].waitReady(deadline); err != nil {
		return f, err
	}
	if err = start("core", "hnsd", e.a.hnsd,
		"-host", "hns", "-addr", e.a.hnsd, "-meta", e.a.metaHRPC, "-subscribe",
		"-link-bind", nsA+"="+e.a.appStd); err != nil {
		return f, err
	}
	if err = f.daemons["core"].waitReady(deadline); err != nil {
		return f, err
	}
	if err = start("gateway", "hnsgw", e.a.gw,
		"-host", "gw", "-addr", e.a.gw, "-backend", e.a.hnsd, "-max-inflight", "64"); err != nil {
		return f, err
	}
	if err = f.daemons["gateway"].waitReady(deadline); err != nil {
		return f, err
	}
	// The subscription is live once the meta bindd counts one subscriber.
	meta := f.daemons["bind_meta"]
	if err = meta.poll(deadline, "hnsd subscribing to it", func() bool {
		snap, err := scrape(meta.mAddr)
		return err == nil && snap["push_subscribers"] >= 1
	}); err != nil {
		return f, err
	}

	f.net = transport.NewNetwork(simtime.Default())
	f.rpc = hrpc.NewClient(f.net)
	f.finder = core.NewRemoteHNS(f.rpc, hnsBinding(e.a.gw))
	f.metaRPC = hrpc.NewClient(f.net)
	f.meta = bind.NewHRPCClient(f.metaRPC, metaBinding(e.a.metaHRPC))
	return f, nil
}

func hnsBinding(addr string) hrpc.Binding {
	return hrpc.SuiteRawNet.Bind(addr, addr, core.HNSProgram, core.HNSVersion)
}

func metaBinding(addr string) hrpc.Binding {
	return hrpc.SuiteRawNet.Bind(addr, addr, bind.HRPCProgram, bind.HRPCVersion)
}

// stop kills every daemon, waits for each, and removes the journal.
func (f *federation) stop() {
	if f.rpc != nil {
		f.rpc.Close()
		f.metaRPC.Close()
	}
	for _, d := range f.order {
		d.stop()
	}
	if f.dataDir != "" {
		os.RemoveAll(f.dataDir)
	}
}

// scrape reads a daemon's /debug/hns and flattens counters and gauges
// into one map.
func scrape(addr string) (map[string]int64, error) {
	resp, err := http.Get("http://" + addr + "/debug/hns")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(snap.Counters)+len(snap.Gauges))
	for _, s := range snap.Counters {
		out[s.Name] = s.Value
	}
	for _, s := range snap.Gauges {
		out[s.Name] = s.Value
	}
	return out, nil
}

// resolve is the read op: FindNSM through the gateway, then the NSM call
// the binding designates. The answer is checked against the oracle.
func (f *federation) resolve(ctx context.Context, hnsContext string, tr *tracer, parent uint32) error {
	name := names.Name{Context: hnsContext, Individual: target}
	s := tr.begin("client.findnsm", parent)
	b, err := f.finder.FindNSM(ctx, name, qclass.HostAddress)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("FindNSM %s: %w", hnsContext, err)
	}
	s = tr.begin("client.nsm_call", parent)
	got, err := nsm.CallResolveHost(ctx, f.rpc, b, name)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("ResolveHost %s at %s: %w", hnsContext, b, err)
	}
	if got != targetAddr {
		return fmt.Errorf("resolve %s: got %q, want %q", name, got, targetAddr)
	}
	return nil
}
