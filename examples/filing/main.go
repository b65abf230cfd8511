// Filing: the heterogeneous file system of the paper's conclusions — a
// filing client that names file servers through the HNS and moves files
// between a UNIX file server (named in BIND, bound via the portmapper,
// spoken to over Sun RPC) and a Xerox file server (named in the
// Clearinghouse, bound via its stored Courier binding) with the same
// three-line client code.
//
//	go run ./examples/filing
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hns/internal/clearinghouse"
	"hns/internal/filing"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
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

	// A UNIX file server on fiji, registered like any Sun RPC service.
	unix := filing.NewServer("fiji")
	_, bU, err := hrpc.Serve(w.Net, unix.HRPCServer(), hrpc.SuiteSunRPC, "fiji", "fiji:filing")
	if err != nil {
		return err
	}
	w.Portmappers["fiji"].Set(filing.Program, filing.Version, "udp", bU.Addr)

	// A Xerox file server, its binding stored as a Clearinghouse property.
	xerox := filing.NewServer("xerox-d0")
	_, bX, err := hrpc.Serve(w.Net, xerox.HRPCServer(), hrpc.SuiteCourier, "xerox-d0", "xerox:filing")
	if err != nil {
		return err
	}
	const xeroxFS = "bigfiles:cs:uw"
	if err := w.CHClient().AddItem(ctx, clearinghouse.MustName(xeroxFS),
		clearinghouse.PropBinding, []byte(qclass.FormatBinding(bX))); err != nil {
		return err
	}

	client := filing.NewClient(w.HNS, w.RPC)
	unixName := names.Must(world.CtxBind, world.HostBind)
	xeroxName := names.Must(world.CtxCH, xeroxFS)

	fmt.Println("heterogeneous filing through the HNS")
	fmt.Println()

	// Author a file on the UNIX server.
	paper := []byte("A Name Service for Evolving, Heterogeneous Systems\n" +
		"Schwartz, Zahorjan, Notkin — SOSP 1987\n")
	if err := client.Store(ctx, unixName, "/papers/hns.txt", paper); err != nil {
		return err
	}
	fmt.Printf("stored /papers/hns.txt on %s (%d bytes)\n", unixName, len(paper))

	// Archive it to the Xerox server — one call, two worlds.
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		return client.Copy(ctx, unixName, "/papers/hns.txt", xeroxName, "/archive/hns.txt")
	})
	if err != nil {
		return err
	}
	fmt.Printf("copied to %s in %.0f simulated ms\n", xeroxName, float64(cost)/float64(time.Millisecond))
	fmt.Println("  (under the hood: FindNSM x2, portmapper binding on one side,")
	fmt.Println("   Clearinghouse-stored Courier binding on the other)")
	fmt.Println()

	// Read it back from the Xerox side.
	got, err := client.Fetch(ctx, xeroxName, "/archive/hns.txt")
	if err != nil {
		return err
	}
	fmt.Printf("fetched from the Xerox world:\n%s\n", got)

	listing, err := client.List(ctx, xeroxName, "/archive/")
	if err != nil {
		return err
	}
	fmt.Printf("archive listing: %v\n", listing)
	fmt.Println()
	fmt.Println("The filing client holds no per-file location database (contrast Jasmine,")
	fmt.Println("paper §4): file servers are HNS names; files live where their servers put them.")
	return nil
}
