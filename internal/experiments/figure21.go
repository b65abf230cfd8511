package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"hns/internal/core"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/world"
)

// RunFigure21 reproduces Figure 2.1, "HNS Query Processing", as an
// executed trace: a client presents an HNS name whose data lives in the
// Clearinghouse and is handed a handle to the Clearinghouse NSM; a
// subsequent query for a name in BIND is routed to the BIND NSM — through
// the identical query-class interface, so the client code is the same
// both times.
func RunFigure21(ctx context.Context, w *world.World, out io.Writer) error {
	fmt.Fprintln(out, "Figure 2.1 — HNS Query Processing (executed trace)")
	fmt.Fprintln(out)

	queries := []struct {
		label   string
		name    names.Name
		service string
		prog    uint32
		vers    uint32
	}{
		{"Clearinghouse", world.CourierServiceName(), "fileserver",
			world.CourierProgram, world.CourierVersion},
		{"BIND", world.DesiredServiceName(), world.DesiredService,
			world.DesiredProgram, world.DesiredVersion},
	}
	for i, q := range queries {
		fmt.Fprintf(out, "query %d: client presents HNS name %q, query class %q\n",
			i+1, q.name, qclass.HRPCBinding)

		// Trace the mapping sequence of the first (cache-cold) FindNSM.
		traced := core.WithTracer(ctx, func(e core.Event) {
			fmt.Fprintf(out, "    . %s\n", e.String())
		})
		findCost, err := simtime.Measure(traced, func(ctx context.Context) error {
			_, err := w.HNS.FindNSM(ctx, q.name, qclass.HRPCBinding)
			return err
		})
		if err != nil {
			return err
		}
		b, err := w.HNS.FindNSM(ctx, q.name, qclass.HRPCBinding)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  HNS:    FindNSM -> %s NSM at %s  (%.1f ms)\n",
			q.label, b.Addr, msf(findCost))

		svcB, err := nsm.CallBindService(ctx, w.RPC, b, q.service, q.prog, q.vers, q.name)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  NSM:    %s NSM queries its name service, returns standardized binding %s\n",
			q.label, svcB)

		ret, err := w.RPC.Call(ctx, svcB, world.EchoProc, world.EchoArgs("hello from the client"))
		if err != nil {
			return err
		}
		echoed, _ := ret.Items[0].AsString()
		fmt.Fprintf(out, "  client: calls the bound service directly -> %q\n\n", echoed)
	}
	fmt.Fprintln(out, "Both NSMs were reached through the identical HRPCBinding interface;")
	fmt.Fprintln(out, "the client never learned which name service answered.")
	return nil
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
