// Command chd runs a Clearinghouse server over real sockets (the Courier
// suite on TCP), with optional snapshot persistence and replication peers.
//
// Usage:
//
//	chd -host xerox -addr 127.0.0.1:5303 -snapshot ch.json \
//	    -principal admin:cs:uw=secret -peer 127.0.0.1:5304
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hns/internal/clearinghouse"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/transport"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var (
		host       = flag.String("host", "xerox", "descriptive host name")
		addr       = flag.String("addr", "127.0.0.1:5303", "listen address (TCP)")
		snapshot   = flag.String("snapshot", "", "snapshot file to load at startup and save at shutdown")
		open       = flag.Bool("open", false, "admit any principal (demo mode)")
		principals stringList
		peers      stringList
		replCred   = flag.String("repl-cred", "", "principal=secret this server presents to peers")
		metrAddr   = flag.String("metrics", "", "serve /metrics and /debug/hns on this address (empty disables)")
	)
	flag.Var(&principals, "principal", "principal=secret to admit (repeatable)")
	flag.Var(&peers, "peer", "replication peer address (repeatable)")
	flag.Parse()

	if *metrAddr != "" {
		msrv, err := metrics.Serve(*metrAddr, metrics.Default())
		if err != nil {
			log.Fatalf("chd: metrics listen: %v", err)
		}
		defer msrv.Close()
		log.Printf("chd: metrics on http://%s/metrics", msrv.Addr())
	}

	net := transport.NewNetwork()

	auth := clearinghouse.NewAuthenticator(*open)
	for _, p := range principals {
		name, secret, ok := strings.Cut(p, "=")
		if !ok {
			log.Fatalf("chd: -principal wants name=secret, got %q", p)
		}
		auth.AddPrincipal(name, secret)
	}

	store := clearinghouse.NewStore()
	if *snapshot != "" {
		if err := store.LoadFile(*snapshot); err != nil {
			if !os.IsNotExist(err) {
				log.Fatalf("chd: %v", err)
			}
			log.Printf("chd: no snapshot at %s; starting empty", *snapshot)
		} else {
			log.Printf("chd: loaded %d objects from %s", store.Len(), *snapshot)
		}
	}

	srv := clearinghouse.NewServer(*host, store, auth)
	if len(peers) > 0 {
		rpc := hrpc.NewClient(net)
		defer rpc.Close()
		principal, secret, _ := strings.Cut(*replCred, "=")
		cred := clearinghouse.NewCredentials(principal, secret)
		for _, p := range peers {
			b := hrpc.SuiteCourierNet.Bind(p, p, clearinghouse.Program, clearinghouse.Version)
			srv.AddPeer(clearinghouse.NewClient(rpc, b, cred))
		}
		log.Printf("chd: replicating to %d peers", len(peers))
	}

	ln, binding, err := hrpc.Serve(net, srv.HRPCServer(), hrpc.SuiteCourierNet, *host, *addr)
	if err != nil {
		log.Fatalf("chd: %v", err)
	}
	defer ln.Close()
	log.Printf("chd: %s serving Clearinghouse %s, %d objects, open=%v",
		*host, binding, store.Len(), *open)

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	if *snapshot != "" {
		if err := store.SaveFile(*snapshot); err != nil {
			log.Printf("chd: saving snapshot: %v", err)
		} else {
			log.Printf("chd: saved %d objects to %s", store.Len(), *snapshot)
		}
	}
	log.Println("chd: shutting down")
}
