// Command nsmd hosts Naming Semantics Managers as network services.
//
// One nsmd serves one NSM over its world's native protocol suite:
//
//	# the BIND-world binding NSM (Sun RPC over UDP)
//	nsmd -type binding-bind -ns bind-cs -bind-std 127.0.0.1:5302 \
//	     -addr 127.0.0.1:5320
//
//	# the Clearinghouse-world binding NSM (Courier over TCP)
//	nsmd -type binding-ch -ns ch-uw -ch 127.0.0.1:5303 \
//	     -ch-principal reader:cs:uw -ch-secret secret -addr 127.0.0.1:5321
//
// Types: binding-bind, binding-ch, hostaddr-bind, hostaddr-ch, mail-bind,
// mail-ch. Registering the served NSM with the HNS is done separately with
// `hnsctl register-nsm` — "registering an NSM with the HNS extends the
// functionality of all machines at once".
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/nsm"
	"hns/internal/transport"
)

func main() {
	var (
		host        = flag.String("host", "nsmd", "descriptive host name")
		addr        = flag.String("addr", "127.0.0.1:5320", "listen address")
		nsmType     = flag.String("type", "", "NSM type: binding-bind binding-ch hostaddr-bind hostaddr-ch mail-bind mail-ch")
		name        = flag.String("name", "", "registered NSM name (default <type>-1)")
		ns          = flag.String("ns", "", "underlying name service's registered name")
		bindStd     = flag.String("bind-std", "", "standard-interface UDP address of the underlying BIND")
		chAddr      = flag.String("ch", "", "Courier TCP address of the underlying Clearinghouse")
		chPrincipal = flag.String("ch-principal", "", "Clearinghouse principal")
		chSecret    = flag.String("ch-secret", "", "Clearinghouse secret")
		marshalled  = flag.Bool("marshalled-cache", false, "keep the NSM cache in marshalled form")
		staleFor    = flag.Duration("serve-stale", 0, "serve expired cache entries up to this long past expiry when the underlying name service is down (0 disables)")
		metrAddr    = flag.String("metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
	)
	flag.Parse()
	if *nsmType == "" || *ns == "" {
		log.Fatal("nsmd: -type and -ns are required")
	}
	if *name == "" {
		*name = *nsmType + "-1"
	}

	if *metrAddr != "" {
		msrv, err := metrics.Serve(*metrAddr, metrics.Default())
		if err != nil {
			log.Fatalf("nsmd: metrics listen: %v", err)
		}
		defer msrv.Close()
		log.Printf("nsmd: metrics on http://%s/metrics", msrv.Addr())
	}

	net := transport.NewNetwork()
	rpc := hrpc.NewClient(net)
	defer rpc.Close()

	opts := nsm.Options{StaleFor: *staleFor}
	if *marshalled {
		opts.CacheMode = bind.CacheMarshalled
	}

	newStd := func() *bind.StdClient {
		if *bindStd == "" {
			log.Fatalf("nsmd: -type %s requires -bind-std", *nsmType)
		}
		return bind.NewStdClient(net, "udp-net", *bindStd)
	}
	newCH := func() *clearinghouse.Client {
		if *chAddr == "" {
			log.Fatalf("nsmd: -type %s requires -ch (and credentials)", *nsmType)
		}
		b := hrpc.SuiteCourierNet.Bind(*chAddr, *chAddr, clearinghouse.Program, clearinghouse.Version)
		return clearinghouse.NewClient(rpc, b, clearinghouse.NewCredentials(*chPrincipal, *chSecret))
	}

	var (
		server *hrpc.Server
		suite  hrpc.Suite
	)
	switch *nsmType {
	case "binding-bind":
		server = nsm.NewBindBinding(*name, *ns, newStd(), rpc, opts).Server()
		suite = hrpc.SuiteSunRPCNet
	case "binding-ch":
		server = nsm.NewCHBinding(*name, *ns, newCH(), rpc, opts).Server()
		suite = hrpc.SuiteCourierNet
	case "hostaddr-bind":
		server = nsm.NewBindHostAddr(*name, *ns, newStd(), opts).Server()
		suite = hrpc.SuiteSunRPCNet
	case "hostaddr-ch":
		server = nsm.NewCHHostAddr(*name, *ns, newCH(), opts).Server()
		suite = hrpc.SuiteCourierNet
	case "mail-bind":
		server = nsm.NewBindMailRoute(*name, *ns, newStd(), opts).Server()
		suite = hrpc.SuiteSunRPCNet
	case "mail-ch":
		server = nsm.NewCHMailRoute(*name, *ns, newCH(), opts).Server()
		suite = hrpc.SuiteCourierNet
	default:
		log.Fatalf("nsmd: unknown NSM type %q", *nsmType)
	}

	ln, binding, err := hrpc.Serve(net, server, suite, *host, *addr)
	if err != nil {
		log.Fatalf("nsmd: %v", err)
	}
	defer ln.Close()
	log.Printf("nsmd: serving %s (%s for %s) at %s", *name, *nsmType, *ns, binding)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	log.Println("nsmd: shutting down")
}
