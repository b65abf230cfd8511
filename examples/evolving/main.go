// Evolving: the property the paper leads with — integrating a brand-new
// system type into a running federation without modifying existing
// applications, and watching native updates flow through the global name
// space with no reregistration.
//
// Two demonstrations:
//
//  1. Direct access: an "existing application" creates a name using its
//     native BIND interface (knowing nothing of the HNS); a global client
//     resolves it through the HNS immediately.
//
//  2. A new system type (a Tektronix workstation running Uniflex, one of
//     the HCS machines) joins: its name service is a plain BIND zone, and
//     integration is just building/registering NSMs — no client changes.
//
//     go run ./examples/evolving
package main

import (
	"context"
	"fmt"
	"log"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/world"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()
	w, err := world.New(world.Config{})
	if err != nil {
		return err
	}
	defer w.Close()

	fmt.Println("== 1. Direct access: native updates are globally visible ==")
	fmt.Println()

	// An existing application on fiji registers a new host the way it
	// always has: a native BIND dynamic update. It has never heard of the
	// HNS.
	nativeRPC := hrpc.NewClient(w.Net)
	defer nativeRPC.Close()
	_, fijiHRPC, err := w.BindServer.ServeHRPC(w.Net, "fiji:bind-hrpc-app")
	if err != nil {
		return err
	}
	native := bind.NewHRPCClient(nativeRPC, fijiHRPC)
	if _, err := native.Update(ctx, world.BindZone, bind.UpdateAdd,
		bind.A("newhost.cs.washington.edu", "newhost", 600)); err != nil {
		return err
	}
	fmt.Println("existing app: added A record for newhost.cs.washington.edu via native BIND update")

	// A global client resolves it through the HNS — no reregistration
	// step ever ran.
	q := names.Must(world.CtxHostB, "newhost.cs.washington.edu")
	b, err := w.HNS.FindNSM(ctx, q, qclass.HostAddress)
	if err != nil {
		return err
	}
	addr, err := nsm.CallResolveHost(ctx, w.RPC, b, q)
	if err != nil {
		return err
	}
	fmt.Printf("global client: %s -> %s  (visible immediately, zero reregistration)\n\n", q, addr)

	fmt.Println("== 2. A new system type joins the federation ==")
	fmt.Println()

	// The Tektronix/Uniflex machine arrives with its own name service (a
	// BIND zone of its own, standing in for whatever it ships with).
	uniflex := bind.NewServer("tek")
	zone, err := bind.NewZone("tek.lab", true)
	if err != nil {
		return err
	}
	if err := uniflex.AddZone(zone); err != nil {
		return err
	}
	if err := uniflex.LoadRecords([]bind.RR{
		bind.A("tek4404.tek.lab", "tek", 600),
		bind.A("plotter.tek.lab", "tekplot", 600),
	}); err != nil {
		return err
	}
	if _, err := uniflex.ServeStd(w.Net, "udp", "tek:53"); err != nil {
		return err
	}
	fmt.Println("uniflex world: name server up with 2 hosts; existing tek apps unchanged")

	// Integration effort = one NSM + three registrations. "An amount of
	// integration effort appropriate to the benefits received can be
	// chosen individually for each subsystem type": here only the
	// HostAddress query class is worth supporting.
	std := bind.NewStdClient(w.Net, "udp", "tek:53")
	tekHost := nsm.NewBindHostAddr("hostaddr-tek-1", "uniflex-tek", std, w.NSMOptions())
	if _, _, err := hrpc.Serve(w.Net, tekHost.Server(), hrpc.SuiteRaw, world.HostNSM, "june:nsm-hostaddr-tek"); err != nil {
		return err
	}
	w.HNS.LinkHostResolver("uniflex-tek", tekHost)

	if err := w.HNS.RegisterNameService(ctx, "uniflex-tek", "uniflex"); err != nil {
		return err
	}
	if err := w.HNS.RegisterContext(ctx, "hostaddr-tek", "uniflex-tek"); err != nil {
		return err
	}
	if err := w.HNS.RegisterNSM(ctx, core.NSMInfo{
		Name: "hostaddr-tek-1", NameService: "uniflex-tek", QueryClass: qclass.HostAddress,
		Host: world.HostNSM, HostContext: world.CtxHostB,
		Port: "nsm-hostaddr-tek", Suite: hrpc.SuiteRaw,
	}); err != nil {
		return err
	}
	fmt.Println("integration:   1 NSM built + registered (name service, context, NSM records)")

	// Global clients can resolve tek names now — with the very same call
	// they already used.
	q2 := names.Must("hostaddr-tek", "plotter.tek.lab")
	b2, err := w.HNS.FindNSM(ctx, q2, qclass.HostAddress)
	if err != nil {
		return err
	}
	addr2, err := nsm.CallResolveHost(ctx, w.RPC, b2, q2)
	if err != nil {
		return err
	}
	fmt.Printf("global client: %s -> %s  (same FindNSM call, new world)\n\n", q2, addr2)

	inv, err := w.HNS.ListRegistrations(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("federation now spans %d name services: %v\n", len(inv.NameServices), inv.NameServices)
	fmt.Println("no existing application or client was modified or relinked.")
	return nil
}
