// Command hnsgw runs the admission-controlled resolution gateway: an HNS
// front door that forwards FindNSM and FindNSMBatch to a backend hnsd,
// shedding excess load with typed backpressure before it reaches the
// resolver.
//
// Usage:
//
//	hnsgw -addr 127.0.0.1:5320 -backend 127.0.0.1:5310 \
//	      -rate 100 -max-inflight 256 -metrics 127.0.0.1:5321
//
// Repeating -backend lists failover backends in order: every admitted
// call goes to the first live one, and a dead backend is taken out of
// rotation by the same per-endpoint breakers hnsd's -meta-replica uses.
//
// -rate admits that many calls per second per client, with a bucket
// depth of max(1, rate). Batch resolution is classified low priority and
// sheds first, at three quarters of -max-inflight; single-name calls
// keep flowing to the full cap. A budget in a caller's raw call header
// crosses the gateway, so the backend sees the caller's remaining
// deadline, and already-expired work is shed at this hop.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hns/internal/admission"
	"hns/internal/core"
	"hns/internal/gateway"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/transport"
)

// backendList collects repeated -backend flags.
type backendList []string

func (b *backendList) String() string     { return strings.Join(*b, ",") }
func (b *backendList) Set(v string) error { *b = append(*b, v); return nil }

func main() {
	var backends backendList
	var (
		host     = flag.String("host", "hnsgw", "descriptive host name")
		addr     = flag.String("addr", "127.0.0.1:5320", "gateway listen address (TCP)")
		rate     = flag.Float64("rate", 0, "per-client sustained admissions per second (0 disables rate limiting)")
		maxInfl  = flag.Int("max-inflight", 0, "cap on concurrently admitted calls (0 disables the load cap)")
		metrAddr = flag.String("metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
	)
	flag.Var(&backends, "backend", "backend HNS FindNSM address (TCP); repeat to add failover backends, tried in order")
	flag.Parse()
	if len(backends) == 0 {
		backends = backendList{"127.0.0.1:5310"}
	}

	if *metrAddr != "" {
		msrv, err := metrics.Serve(*metrAddr, metrics.Default())
		if err != nil {
			log.Fatalf("hnsgw: metrics listen: %v", err)
		}
		defer msrv.Close()
		log.Printf("hnsgw: metrics on http://%s/metrics", msrv.Addr())
	}

	net := transport.NewNetwork()
	up := hrpc.NewClient(net)
	defer up.Close()

	cfg := gateway.Config{Name: "hnsgw@" + *host}
	if *rate > 0 || *maxInfl > 0 {
		// Batches shed at three quarters of the cap; admission's zero
		// watermark would mean no priority split.
		cfg.Admission = &admission.Config{Rate: *rate, MaxInflight: *maxInfl, LowWatermark: 0.75}
	}
	if len(backends) > 1 {
		// Ordered failover through the client's per-endpoint breakers. A
		// partitioned backend shows up only as a timeout, and with no
		// retry budget the call would end there instead of moving on.
		up.SetReplicas(backends[0], backends[1:]...)
		up.Policy = hrpc.RetryPolicy{Budget: time.Second}
	}
	gw := gateway.New(up, hrpc.SuiteRawNet.Bind(backends[0], backends[0], core.HNSProgram, core.HNSVersion), cfg)

	ln, binding, err := gw.Serve(net, hrpc.SuiteRawNet, *host, *addr)
	if err != nil {
		log.Fatalf("hnsgw: %v", err)
	}
	defer ln.Close()
	switch {
	case cfg.Admission != nil:
		log.Printf("hnsgw: serving %s -> %s (rate %.0f/s, inflight cap %d)",
			binding, backends.String(), *rate, *maxInfl)
	default:
		log.Printf("hnsgw: serving %s -> %s (admission disabled)", binding, backends.String())
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	if ctl := gw.Admission(); ctl != nil {
		log.Printf("hnsgw: shutting down (%d in flight, %d known clients)", ctl.Inflight(), ctl.Clients())
	} else {
		log.Print("hnsgw: shutting down")
	}
}
