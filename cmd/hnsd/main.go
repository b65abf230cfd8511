// Command hnsd runs the HNS as a network service over real sockets: a
// FindNSM server backed by a meta-BIND (a bindd with an updatable meta
// zone), with HostAddress NSMs linked in per the prototype's arrangement.
//
// Usage:
//
//	hnsd -addr 127.0.0.1:5310 -meta 127.0.0.1:5301 -metazone hns \
//	     -link-bind bind-cs=127.0.0.1:5302 \
//	     -link-ch   ch-uw=127.0.0.1:5303,reader:cs:uw,secret
//
// -link-bind links a BIND-world HostAddress NSM (name service = the
// conventional BIND at the given standard-interface UDP address);
// -link-ch links a Clearinghouse-world one (Courier address plus
// credentials).
//
// Each -meta-replica names a secondary meta-BIND (bindd -secondary) tried
// in order when -meta is unreachable: the per-endpoint breakers take a
// dead replica out of rotation, and -serve-stale rides out losing them
// all.
//
// The meta-cache is the paper's: demarshalled answers kept for their
// records' TTL, each stored once as an immutable entry that every hit
// reads in place. A NotFound is never cached. -subscribe adds one
// invalidation path: a NOTIFY naming records drops those names, and any
// other zone event empties the cache. The subscription asks for callback
// delivery: the meta bindd sends a transaction's NOTIFY only if this hnsd
// has read one of its names since the last NOTIFY naming it, so a NOTIFY
// that would find nothing to drop is never sent. With -meta-replica it
// takes every transaction, since reads may then ride another connection.
// Table 3.2's marshalled mode is measured in-process by hnsbench, not
// served.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/nsm"
	"hns/internal/transport"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var (
		host      = flag.String("host", "hnsd", "descriptive host name")
		addr      = flag.String("addr", "127.0.0.1:5310", "FindNSM service listen address (TCP)")
		metaAddr  = flag.String("meta", "127.0.0.1:5301", "meta-BIND HRPC address (TCP)")
		metaZone  = flag.String("metazone", "hns", "meta-information zone")
		preload   = flag.Bool("preload", false, "preload the meta-cache via zone transfer at startup")
		metrAddr  = flag.String("metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
		staleFor  = flag.Duration("serve-stale", 0, "serve expired meta-cache entries up to this long past expiry when every meta-BIND replica is down (0 disables)")
		subscribe = flag.Bool("subscribe", false, "subscribe to the meta-BIND's push plane: updates invalidate the meta-cache immediately instead of waiting out TTLs, and only updates of names read since their last NOTIFY are sent (every update with -meta-replica); degrades to polling when the server refuses the subscription")
		linkBind  stringList
		linkCH    stringList
		metaReps  stringList
	)
	flag.Var(&linkBind, "link-bind", "ns=stdaddr: link a BIND HostAddress NSM (repeatable)")
	flag.Var(&linkCH, "link-ch", "ns=addr,principal,secret: link a Clearinghouse HostAddress NSM (repeatable)")
	flag.Var(&metaReps, "meta-replica", "additional meta-BIND HRPC address tried when -meta is unreachable (repeatable, ordered)")
	flag.Parse()

	if *metrAddr != "" {
		msrv, err := metrics.Serve(*metrAddr, metrics.Default())
		if err != nil {
			log.Fatalf("hnsd: metrics listen: %v", err)
		}
		defer msrv.Close()
		log.Printf("hnsd: metrics on http://%s/metrics", msrv.Addr())
	}

	net := transport.NewNetwork()
	rpc := hrpc.NewClient(net)
	defer rpc.Close()

	metaRPC := hrpc.NewClient(net)
	defer metaRPC.Close()
	if len(metaReps) > 0 {
		metaRPC.SetReplicas(*metaAddr, metaReps...)
		log.Printf("hnsd: meta failover replicas: %s", metaReps.String())
	}
	meta := bind.NewHRPCClient(metaRPC,
		hrpc.SuiteRawNet.Bind(*metaAddr, *metaAddr, bind.HRPCProgram, bind.HRPCVersion))

	h := core.New(meta, core.Config{
		MetaZone:   *metaZone,
		ServeStale: *staleFor,
		ChainMeta:  true,
		RPC:        rpc,
	})

	for _, spec := range linkBind {
		ns, stdAddr, ok := strings.Cut(spec, "=")
		if !ok {
			log.Fatalf("hnsd: -link-bind wants ns=addr, got %q", spec)
		}
		std := bind.NewStdClient(net, "udp-net", stdAddr)
		h.LinkHostResolver(ns, nsm.NewBindHostAddr("hostaddr-"+ns, ns, std, nsm.Options{}))
		log.Printf("hnsd: linked BIND HostAddress NSM for %s at %s", ns, stdAddr)
	}
	for _, spec := range linkCH {
		ns, rest, ok := strings.Cut(spec, "=")
		parts := strings.SplitN(rest, ",", 3)
		if !ok || len(parts) != 3 {
			log.Fatalf("hnsd: -link-ch wants ns=addr,principal,secret, got %q", spec)
		}
		chB := hrpc.SuiteCourierNet.Bind(parts[0], parts[0], clearinghouse.Program, clearinghouse.Version)
		ch := clearinghouse.NewClient(rpc, chB, clearinghouse.NewCredentials(parts[1], parts[2]))
		h.LinkHostResolver(ns, nsm.NewCHHostAddr("hostaddr-"+ns, ns, ch, nsm.Options{}))
		log.Printf("hnsd: linked Clearinghouse HostAddress NSM for %s at %s", ns, parts[0])
	}

	if *subscribe {
		h.SubscribeMeta()
		defer h.UnsubscribeMeta()
		log.Printf("hnsd: subscribed to push invalidation for zone %q", *metaZone)
	}

	if *preload {
		rep, err := h.Preload(context.Background())
		if err != nil {
			log.Fatalf("hnsd: preload: %v", err)
		}
		log.Printf("hnsd: preloaded %d meta records (%d bytes) at serial %d",
			rep.Records, rep.Bytes, rep.Serial)
	}

	ln, binding, err := hrpc.Serve(net, core.NewHNSServer(h, "hns@"+*host), hrpc.SuiteRawNet, *host, *addr)
	if err != nil {
		log.Fatalf("hnsd: %v", err)
	}
	defer ln.Close()
	log.Printf("hnsd: serving FindNSM %s (meta %s zone %q)", binding, *metaAddr, *metaZone)

	// Long-lived server hygiene: sweep expired meta-cache entries so dead
	// data does not pin memory between touches.
	sweepDone := make(chan struct{})
	go func() {
		ticker := time.NewTicker(5 * time.Minute)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				h.SweepCache()
			case <-sweepDone:
				return
			}
		}
	}()

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	close(sweepDone)
	st := h.Stats()
	log.Printf("hnsd: %d FindNSM calls, cache hit rate %.0f%%; shutting down",
		st.FindNSMCalls, st.Cache.HitRate*100)
}
