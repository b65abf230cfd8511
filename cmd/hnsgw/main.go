// Command hnsgw runs the admission-controlled resolution gateway: an HNS
// front door that forwards FindNSM and FindNSMBatch to a backend hnsd,
// shedding excess load with typed backpressure before it reaches the
// resolver.
//
// Usage:
//
//	hnsgw -addr 127.0.0.1:5320 -backend 127.0.0.1:5310 \
//	      -rate 100 -burst 200 -max-inflight 256 -metrics 127.0.0.1:5321
//
// Repeating -backend lists failover backends in order: every admitted
// call goes to the first live one, and a dead backend is taken out of
// rotation by the same per-endpoint breakers hnsd's -meta-replica uses.
//
// Batch resolution is classified low priority and sheds first (at
// -low-watermark of the in-flight cap); single-name calls keep flowing
// to the full cap. A budget in a caller's raw call header crosses the
// gateway, so the backend sees the caller's remaining deadline, and
// already-expired work is shed at this hop.
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
		burst    = flag.Float64("burst", 0, "per-client bucket depth (0 means max(1, rate))")
		maxInfl  = flag.Int("max-inflight", 0, "cap on concurrently admitted calls (0 disables the load cap)")
		lowWater = flag.Float64("low-watermark", 0.75, "fraction of -max-inflight past which batch (low-priority) calls shed")
		maxCli   = flag.Int("max-clients", 0, "per-client bucket table bound (0 means the default)")
		retryAft = flag.Duration("retry-after", 0, "backoff hint carried in Overloaded replies (0 means the default)")
		metrAddr = flag.String("metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
		connIdle = flag.Duration("conn-idle", 0, "close pooled upstream connections idle for this long (0 keeps them)")
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
	up.Pool.IdleTimeout = *connIdle
	defer up.Close()

	cfg := gateway.Config{Name: "hnsgw@" + *host}
	if *rate > 0 || *maxInfl > 0 {
		cfg.Admission = &admission.Config{
			Rate:         *rate,
			Burst:        *burst,
			MaxInflight:  *maxInfl,
			LowWatermark: *lowWater,
			MaxClients:   *maxCli,
			RetryAfter:   *retryAft,
		}
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
		log.Printf("hnsgw: serving %s -> %s (rate %.0f/s burst %.0f, inflight cap %d, low watermark %.2f)",
			binding, backends.String(), *rate, *burst, *maxInfl, *lowWater)
	default:
		log.Printf("hnsgw: serving %s -> %s (admission disabled)", binding, backends.String())
	}

	// Long-lived hygiene: evict idle upstream connections.
	done := make(chan struct{})
	if *connIdle > 0 {
		go func() {
			ticker := time.NewTicker(time.Minute)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					up.CloseIdle()
				case <-done:
					return
				}
			}
		}()
	}

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	close(done)
	if ctl := gw.Admission(); ctl != nil {
		log.Printf("hnsgw: shutting down (%d in flight, %d known clients)", ctl.Inflight(), ctl.Clients())
	} else {
		log.Print("hnsgw: shutting down")
	}
}
