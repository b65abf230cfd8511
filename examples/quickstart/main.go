// Quickstart: stand up a minimal heterogeneous federation by hand — one
// BIND world, one Clearinghouse world, a meta-BIND, an HNS — then resolve
// names from both worlds through the single HNS interface.
//
// This example builds everything with the library API directly (no test
// scaffolding) so it doubles as a tour of the public surface:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	net := transport.NewNetwork()
	rpc := hrpc.NewClient(net)
	defer rpc.Close()

	// ---- 1. The modified BIND that stores HNS meta-information.
	metaSrv := bind.NewServer("meta")
	metaZone, err := bind.NewZone("hns", true) // dynamic updates enabled
	if err != nil {
		return err
	}
	if err := metaSrv.AddZone(metaZone); err != nil {
		return err
	}
	_, metaBinding, err := metaSrv.ServeHRPC(net, "meta:bind-hrpc")
	if err != nil {
		return err
	}
	metaClientRPC := hrpc.NewClient(net)
	metaClientRPC.FreshConn = true // Raw-suite discipline: one connection per call
	meta := bind.NewHRPCClient(metaClientRPC, metaBinding)

	// ---- 2. A BIND world: a zone with a couple of hosts.
	bindSrv := bind.NewServer("ns1")
	zone, err := bind.NewZone("lab.edu", true)
	if err != nil {
		return err
	}
	if err := bindSrv.AddZone(zone); err != nil {
		return err
	}
	if err := bindSrv.LoadRecords([]bind.RR{
		bind.A("alpha.lab.edu", "alpha", 600),
		bind.A("beta.lab.edu", "beta", 600),
	}); err != nil {
		return err
	}
	if _, err := bindSrv.ServeStd(net, "udp", "ns1:53"); err != nil {
		return err
	}

	// ---- 3. A Clearinghouse world with one registered host.
	auth := clearinghouse.NewAuthenticator(true)
	ch := clearinghouse.NewServer("chsrv", clearinghouse.NewStore(), auth)
	_, chBinding, err := ch.Serve(net, "chsrv:ch")
	if err != nil {
		return err
	}
	chClient := clearinghouse.NewClient(rpc, chBinding,
		clearinghouse.NewCredentials("demo:lab:org", "pw"))
	if err := chClient.AddItem(ctx, clearinghouse.MustName("gamma:lab:org"),
		clearinghouse.PropAddress, []byte("gamma")); err != nil {
		return err
	}

	// ---- 4. HostAddress NSMs for both worlds, linked into a local HNS.
	std := bind.NewStdClient(net, "udp", "ns1:53")
	bindHost := nsm.NewBindHostAddr("hostaddr-lab", "lab-bind", std, nsm.Options{})
	chHost := nsm.NewCHHostAddr("hostaddr-laborg", "lab-ch", chClient, nsm.Options{})

	h := core.New(meta, core.Config{MetaZone: "hns"})
	h.LinkHostResolver("lab-bind", bindHost)
	h.LinkHostResolver("lab-ch", chHost)

	// ---- 5. Register the federation's meta-information.
	for _, reg := range []struct{ name, typ string }{
		{"lab-bind", "bind"}, {"lab-ch", "clearinghouse"},
	} {
		if err := h.RegisterNameService(ctx, reg.name, reg.typ); err != nil {
			return err
		}
	}
	for ctxName, ns := range map[string]string{
		"hostaddr-bind-ctx": "lab-bind",
		"hostaddr-ch-ctx":   "lab-ch",
	} {
		if err := h.RegisterContext(ctx, ctxName, ns); err != nil {
			return err
		}
	}
	// Serve both HostAddress NSMs remotely too, and register them — the
	// same instances that are linked in can also answer network clients.
	if _, _, err := hrpc.Serve(net, bindHost.Server(), hrpc.SuiteSunRPC, "alpha", "alpha:nsm-host"); err != nil {
		return err
	}
	if _, _, err := hrpc.Serve(net, chHost.Server(), hrpc.SuiteCourier, "alpha", "alpha:nsm-host-ch"); err != nil {
		return err
	}
	for _, info := range []core.NSMInfo{
		{Name: "hostaddr-lab", NameService: "lab-bind", QueryClass: qclass.HostAddress,
			Host: "alpha.lab.edu", HostContext: "hostaddr-bind-ctx",
			Port: "nsm-host", Suite: hrpc.SuiteSunRPC},
		{Name: "hostaddr-laborg", NameService: "lab-ch", QueryClass: qclass.HostAddress,
			Host: "alpha.lab.edu", HostContext: "hostaddr-bind-ctx",
			Port: "nsm-host-ch", Suite: hrpc.SuiteCourier},
	} {
		if err := h.RegisterNSM(ctx, info); err != nil {
			return err
		}
	}

	// ---- 6. Resolve names from both worlds through one interface.
	fmt.Println("quickstart: one HNS, two heterogeneous name services")
	fmt.Println()
	for _, q := range []names.Name{
		names.Must("hostaddr-bind-ctx", "beta.lab.edu"),
		names.Must("hostaddr-ch-ctx", "gamma:lab:org"),
	} {
		var addr string
		cost, err := simtime.Measure(ctx, func(mctx context.Context) error {
			b, err := h.FindNSM(mctx, q, qclass.HostAddress)
			if err != nil {
				return err
			}
			addr, err = nsm.CallResolveHost(mctx, rpc, b, q)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %-35s -> %-8s (%.1f simulated ms, cold)\n",
			q, addr, float64(cost)/float64(time.Millisecond))
	}

	// Warm queries ride the caches.
	q := names.Must("hostaddr-bind-ctx", "beta.lab.edu")
	cost, err := simtime.Measure(ctx, func(mctx context.Context) error {
		b, err := h.FindNSM(mctx, q, qclass.HostAddress)
		if err != nil {
			return err
		}
		_, err = nsm.CallResolveHost(mctx, rpc, b, q)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("  %-35s -> %-8s (%.1f simulated ms, warm)\n",
		q, "beta", float64(cost)/float64(time.Millisecond))

	st := h.Stats()
	fmt.Printf("\nHNS meta-cache: %d hits, %d misses (hit rate %.0f%%)\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.HitRate()*100)
	return nil
}
