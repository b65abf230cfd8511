// Command hcs is the user-facing client for an HCS federation deployed
// over real sockets (hnsd + the service daemons): filing, mail, and remote
// computation from one tool, every binding resolved through the HNS.
//
// Subcommands (all take -hns, the hnsd address):
//
//	hcs resolve <context> <individual>
//	hcs exec    <context!host> <command> [args...]
//	hcs file get <context!server> <path>
//	hcs file put <context!server> <path> <contents>
//	hcs file ls  <context!server> <prefix>
//	hcs mail send <context!user> <from> <subject> <body>
//	hcs mail read <context!user>
//
// Mail routing disciplines map to HRPCBinding contexts via repeated
// -world flags (discipline=context), e.g. -world smtp=hrpcbinding-bind.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"hns/internal/core"
	"hns/internal/filing"
	"hns/internal/hcs"
	"hns/internal/hrpc"
	"hns/internal/mail"
	"hns/internal/names"
	"hns/internal/rexec"
	"hns/internal/transport"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]

	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	hnsAddr := fs.String("hns", "127.0.0.1:5310", "hnsd address")
	worlds := map[string]string{}
	fs.Func("world", "discipline=context mail-routing mapping (repeatable)", func(w string) error {
		d, c, ok := strings.Cut(w, "=")
		if !ok {
			return fmt.Errorf("want discipline=context, got %q", w)
		}
		worlds[d] = c
		return nil
	})

	// Split sub-subcommand for file/mail before flag parsing.
	var sub string
	if cmd == "file" || cmd == "mail" {
		if len(args) == 0 {
			usage()
		}
		sub, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		fail(err)
	}
	rest := fs.Args()

	net := transport.NewNetwork()
	rpc := hrpc.NewClient(net)
	defer rpc.Close()
	finder := core.NewRemoteHNS(rpc,
		hrpc.SuiteRawNet.Bind(*hnsAddr, *hnsAddr, core.HNSProgram, core.HNSVersion))
	dir := hcs.New(finder, rpc)
	ctx := context.Background()

	var err error
	switch cmd {
	case "resolve":
		err = cmdResolve(ctx, dir, rest)
	case "exec":
		err = cmdExec(ctx, dir, rpc, rest)
	case "file":
		err = cmdFile(ctx, finder, rpc, sub, rest)
	case "mail":
		err = cmdMail(ctx, dir, rpc, worlds, sub, rest)
	default:
		usage()
	}
	if err != nil {
		fail(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hcs {resolve|exec|file get/put/ls|mail send/read} [flags] args...")
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hcs:", err)
	os.Exit(1)
}

func cmdResolve(ctx context.Context, dir *hcs.Directory, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("resolve wants <context> <individual>")
	}
	n, err := names.New(args[0], args[1])
	if err != nil {
		return err
	}
	addr, err := dir.ResolveHost(ctx, n)
	if err != nil {
		return err
	}
	fmt.Printf("%s -> %s\n", n, addr)
	return nil
}

func cmdExec(ctx context.Context, dir *hcs.Directory, rpc *hrpc.Client, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("exec wants <context!host> <command> [args...]")
	}
	host, err := names.Parse(args[0])
	if err != nil {
		return err
	}
	client := rexec.NewClient(dir, rpc)
	out, exit, err := client.Run(ctx, host, args[1], args[2:], "")
	if err != nil {
		return err
	}
	fmt.Print(out)
	if exit != 0 {
		os.Exit(int(exit))
	}
	return nil
}

func cmdFile(ctx context.Context, finder core.Finder, rpc *hrpc.Client, sub string, args []string) error {
	fc := filing.NewClient(finder, rpc)
	parseServer := func(s string) (names.Name, error) { return names.Parse(s) }
	switch sub {
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("file get wants <context!server> <path>")
		}
		server, err := parseServer(args[0])
		if err != nil {
			return err
		}
		data, err := fc.Fetch(ctx, server, args[1])
		if err != nil {
			return err
		}
		os.Stdout.Write(data)
		return nil
	case "put":
		if len(args) != 3 {
			return fmt.Errorf("file put wants <context!server> <path> <contents>")
		}
		server, err := parseServer(args[0])
		if err != nil {
			return err
		}
		return fc.Store(ctx, server, args[1], []byte(args[2]))
	case "ls":
		if len(args) != 2 {
			return fmt.Errorf("file ls wants <context!server> <prefix>")
		}
		server, err := parseServer(args[0])
		if err != nil {
			return err
		}
		paths, err := fc.List(ctx, server, args[1])
		if err != nil {
			return err
		}
		for _, p := range paths {
			fmt.Println(p)
		}
		return nil
	default:
		return fmt.Errorf("unknown file subcommand %q", sub)
	}
}

func cmdMail(ctx context.Context, dir *hcs.Directory, rpc *hrpc.Client, worlds map[string]string, sub string, args []string) error {
	agent := mail.NewAgent(dir, rpc, worlds)
	switch sub {
	case "send":
		if len(args) != 4 {
			return fmt.Errorf("mail send wants <context!user> <from> <subject> <body>")
		}
		to, err := names.Parse(args[0])
		if err != nil {
			return err
		}
		id, err := agent.Send(ctx, mail.Message{
			From: args[1], To: to, Subject: args[2], Body: args[3],
		})
		if err != nil {
			return err
		}
		fmt.Printf("delivered, message id %d\n", id)
		return nil
	case "read":
		if len(args) != 1 {
			return fmt.Errorf("mail read wants <context!user>")
		}
		user, err := names.Parse(args[0])
		if err != nil {
			return err
		}
		msgs, err := agent.ReadMailbox(ctx, user)
		if err != nil {
			return err
		}
		for _, m := range msgs {
			fmt.Printf("%4d  %-20s %s\n", m.ID, m.From, m.Subject)
		}
		return nil
	default:
		return fmt.Errorf("unknown mail subcommand %q", sub)
	}
}
