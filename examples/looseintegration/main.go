// Looseintegration: the HCS project's goal realised — "a set of core
// services (filing, mail, and remote computation) are provided
// network-wide, but no attempt is made to mask the heterogeneous aspects
// of the various systems". One program drives all three services across a
// UNIX machine and a Xerox D-machine, every binding flowing through the
// HNS.
//
//	go run ./examples/looseintegration
package main

import (
	"context"
	"fmt"
	"log"

	"hns/internal/clearinghouse"
	"hns/internal/filing"
	"hns/internal/hcs"
	"hns/internal/hrpc"
	"hns/internal/mail"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/rexec"
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

	// ---- Stand up the three services on both machines.
	// UNIX side (fiji): Sun RPC services registered with the portmapper.
	serveSun := func(s *hrpc.Server, port string, prog, vers uint32) error {
		_, b, err := hrpc.Serve(w.Net, s, hrpc.SuiteSunRPC, "fiji", "fiji:"+port)
		if err != nil {
			return err
		}
		w.Portmappers["fiji"].Set(prog, vers, "udp", b.Addr)
		return nil
	}
	files := filing.NewServer("fiji")
	boxes := mail.NewServer("june")
	exec := rexec.NewServer("fiji")
	if err := serveSun(files.HRPCServer(), "filing", filing.Program, filing.Version); err != nil {
		return err
	}
	if err := serveSun(exec.HRPCServer(), "rexec", rexec.Program, rexec.Version); err != nil {
		return err
	}
	_, bBox, err := hrpc.Serve(w.Net, boxes.HRPCServer(), hrpc.SuiteSunRPC, "june", "june:mailbox")
	if err != nil {
		return err
	}
	w.Portmappers["june"].Set(mail.Program, mail.Version, "udp", bBox.Addr)

	// Xerox side: Courier services, bindings stored in the Clearinghouse.
	serveCourier := func(s *hrpc.Server, port, object string) error {
		_, b, err := hrpc.Serve(w.Net, s, hrpc.SuiteCourier, "xerox-d0", "xerox:"+port)
		if err != nil {
			return err
		}
		return w.CHClient().AddItem(ctx, clearinghouse.MustName(object),
			clearinghouse.PropBinding, []byte(qclass.FormatBinding(b)))
	}
	xfiles := filing.NewServer("xerox-d0")
	xexec := rexec.NewServer("xerox-d0")
	if err := serveCourier(xfiles.HRPCServer(), "filing", "bigfiles:cs:uw"); err != nil {
		return err
	}
	if err := serveCourier(xexec.HRPCServer(), "rexec", "compute:cs:uw"); err != nil {
		return err
	}

	// ---- The clients: one facade, three services.
	dir := hcs.New(w.HNS, w.RPC)
	fc := filing.NewClient(w.HNS, w.RPC)
	agent := mail.NewAgent(dir, w.RPC, map[string]string{"smtp": world.CtxBind})
	rc := rexec.NewClient(dir, w.RPC)

	unixHost := names.Must(world.CtxBind, world.HostBind)
	xeroxFS := names.Must(world.CtxCH, "bigfiles:cs:uw")
	xeroxExec := names.Must(world.CtxCH, "compute:cs:uw")

	fmt.Println("HCS loose integration: filing + mail + remote computation, one name service")
	fmt.Println()

	// 1. Remote computation across the fleet.
	results := rc.RunEverywhere(ctx, []names.Name{unixHost, xeroxExec}, "hostname", nil, "")
	fmt.Println("rexec: hostname on every machine —")
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
		fmt.Printf("  %-28s -> %s", r.Host, r.Stdout)
	}
	fmt.Println()

	// 2. Filing: author on UNIX, archive on the D-machine.
	if err := fc.Store(ctx, unixHost, "/tmp/report", []byte("all machines answered")); err != nil {
		return err
	}
	if err := fc.Copy(ctx, unixHost, "/tmp/report", xeroxFS, "/archive/report"); err != nil {
		return err
	}
	data, err := fc.Fetch(ctx, xeroxFS, "/archive/report")
	if err != nil {
		return err
	}
	fmt.Printf("filing: /tmp/report authored on fiji, archived on xerox -> %q\n\n", data)

	// 3. Mail: tell the team.
	if _, err := agent.Send(ctx, mail.Message{
		From:    "operator",
		To:      names.Must(world.CtxMailB, world.MailUserBind),
		Subject: "fleet status",
		Body:    string(data),
	}); err != nil {
		return err
	}
	inbox, err := agent.ReadMailbox(ctx, names.Must(world.CtxMailB, world.MailUserBind))
	if err != nil {
		return err
	}
	fmt.Printf("mail: %s has %d message(s); latest: %q\n\n",
		world.MailUserBind, len(inbox), inbox[len(inbox)-1].Subject)

	st := w.HNS.Stats()
	fmt.Printf("every binding flowed through the HNS: %d FindNSM calls, %.0f%% cache hits\n",
		st.FindNSMCalls, st.Cache.HitRate*100)
	return nil
}
