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
	"errors"
	"flag"
	"fmt"
	"io"
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
	var status exitStatus
	switch err := run(os.Args[1:], os.Stdout); {
	case errors.As(err, &status):
		os.Exit(int(status))
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "hcs:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: hcs {resolve|exec|file get/put/ls|mail send/read} [flags] args...")

// exitStatus is a remote command's non-zero exit status, which hcs exits
// with.
type exitStatus uint32

func (s exitStatus) Error() string { return fmt.Sprintf("exit status %d", uint32(s)) }

// run executes one subcommand, writing its output to stdout.
func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd, args := args[0], args[1:]

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
			return errUsage
		}
		sub, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()

	net := transport.NewNetwork()
	rpc := hrpc.NewClient(net)
	defer rpc.Close()
	finder := core.NewRemoteHNS(rpc,
		hrpc.SuiteRawNet.Bind(*hnsAddr, *hnsAddr, core.HNSProgram, core.HNSVersion))
	dir := hcs.New(finder, rpc)
	ctx := context.Background()

	switch cmd {
	case "resolve":
		return cmdResolve(ctx, stdout, dir, rest)
	case "exec":
		return cmdExec(ctx, stdout, dir, rpc, rest)
	case "file":
		return cmdFile(ctx, stdout, finder, rpc, sub, rest)
	case "mail":
		return cmdMail(ctx, stdout, dir, rpc, worlds, sub, rest)
	}
	return errUsage
}

func cmdResolve(ctx context.Context, out io.Writer, dir *hcs.Directory, args []string) error {
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
	fmt.Fprintf(out, "%s -> %s\n", n, addr)
	return nil
}

func cmdExec(ctx context.Context, out io.Writer, dir *hcs.Directory, rpc *hrpc.Client, args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("exec wants <context!host> <command> [args...]")
	}
	host, err := names.Parse(args[0])
	if err != nil {
		return err
	}
	client := rexec.NewClient(dir, rpc)
	output, exit, err := client.Run(ctx, host, args[1], args[2:], "")
	if err != nil {
		return err
	}
	fmt.Fprint(out, output)
	if exit != 0 {
		return exitStatus(exit)
	}
	return nil
}

func cmdFile(ctx context.Context, out io.Writer, finder core.Finder, rpc *hrpc.Client, sub string, args []string) error {
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
		_, err = out.Write(data)
		return err
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
			fmt.Fprintln(out, p)
		}
		return nil
	default:
		return fmt.Errorf("unknown file subcommand %q", sub)
	}
}

func cmdMail(ctx context.Context, out io.Writer, dir *hcs.Directory, rpc *hrpc.Client, worlds map[string]string, sub string, args []string) error {
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
		fmt.Fprintf(out, "delivered, message id %d\n", id)
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
			fmt.Fprintf(out, "%4d  %-20s %s\n", m.ID, m.From, m.Subject)
		}
		return nil
	default:
		return fmt.Errorf("unknown mail subcommand %q", sub)
	}
}
