// Package rexec implements the remote-computation service built on the
// HNS — the third HCS core network service ("filing, mail, and remote
// computation are provided network-wide").
//
// An execution server exports named commands; a client names the target
// host with an HNS name, binds the execution service through the HNS (so
// UNIX hosts reached over Sun RPC and Xerox hosts reached over Courier are
// indistinguishable), and runs commands synchronously. RunEverywhere fans
// one command out across heterogeneous hosts — the loose-integration
// pattern the HCS project wanted: use every machine without masking what
// it is.
package rexec

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"hns/internal/hcs"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/simtime"
)

// Program identification for the execution protocol.
const (
	Program uint32 = 500003
	Version uint32 = 1
)

// ServiceName is the service clients import on execution hosts.
const ServiceName = "rexec"

// Command implements one named remote command.
type Command func(ctx context.Context, args []string, stdin string) (stdout string, exit uint32)

// Result is one command's outcome.
type Result struct {
	Host   string
	Stdout string
	Exit   uint32
	Err    error
}

var procRun = hrpc.Procedure{
	Name: "ExecRun", ID: 1,
	Args: marshal.TStruct(marshal.TString, marshal.TList(marshal.TString), marshal.TString),
	Ret:  marshal.TStruct(marshal.TUint32, marshal.TString),
}

var procCommands = hrpc.Procedure{
	Name: "ExecCommands", ID: 2,
	Args: marshal.TStruct(),
	Ret:  marshal.TStruct(marshal.TList(marshal.TString)),
}

// Server is one host's execution service: a registry of named commands.
type Server struct {
	host string

	mu       sync.RWMutex
	commands map[string]Command
}

// NewServer creates an execution server with the standard built-ins
// (echo, hostname, wc).
func NewServer(host string) *Server {
	s := &Server{host: host, commands: make(map[string]Command)}
	s.RegisterCommand("echo", func(ctx context.Context, args []string, stdin string) (string, uint32) {
		out := ""
		for i, a := range args {
			if i > 0 {
				out += " "
			}
			out += a
		}
		return out + "\n", 0
	})
	s.RegisterCommand("hostname", func(ctx context.Context, args []string, stdin string) (string, uint32) {
		return host + "\n", 0
	})
	s.RegisterCommand("wc", func(ctx context.Context, args []string, stdin string) (string, uint32) {
		words := 0
		inWord := false
		for _, c := range stdin {
			if c == ' ' || c == '\n' || c == '\t' {
				inWord = false
				continue
			}
			if !inWord {
				words++
				inWord = true
			}
		}
		return fmt.Sprintf("%d\n", words), 0
	})
	return s
}

// RegisterCommand installs (or replaces) a named command.
func (s *Server) RegisterCommand(name string, cmd Command) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commands[name] = cmd
}

// Run executes one command locally.
func (s *Server) Run(ctx context.Context, name string, args []string, stdin string) (string, uint32, error) {
	s.mu.RLock()
	cmd, ok := s.commands[name]
	s.mu.RUnlock()
	if !ok {
		return "", 127, fmt.Errorf("rexec: %s: command not found on %s", name, s.host)
	}
	// Process startup cost (fork/exec on a 1987 machine).
	simtime.Charge(ctx, simtime.ActivationProbe)
	out, exit := cmd(ctx, args, stdin)
	return out, exit, nil
}

// Commands lists the registered command names, sorted.
func (s *Server) Commands() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.commands))
	for n := range s.commands {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// HRPCServer wraps the server in the execution program.
func (s *Server) HRPCServer() *hrpc.Server {
	hs := hrpc.NewServer("rexec@"+s.host, Program, Version)
	hs.Register(procRun, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		name, _ := args.Items[0].AsString()
		argv := make([]string, 0, args.Items[1].Len())
		for _, it := range args.Items[1].Items {
			a, err := it.AsString()
			if err != nil {
				return marshal.Value{}, err
			}
			argv = append(argv, a)
		}
		stdin, _ := args.Items[2].AsString()
		out, exit, err := s.Run(ctx, name, argv, stdin)
		if err != nil {
			return marshal.Value{}, err
		}
		return marshal.StructV(marshal.U32(exit), marshal.Str(out)), nil
	})
	hs.Register(procCommands, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		items := []marshal.Value{}
		for _, n := range s.Commands() {
			items = append(items, marshal.Str(n))
		}
		return marshal.StructV(marshal.ListV(items...)), nil
	})
	return hs
}

// Client runs commands on HNS-named hosts.
type Client struct {
	dir *hcs.Directory
	rpc *hrpc.Client
}

// NewClient creates a remote-execution client.
func NewClient(dir *hcs.Directory, rpc *hrpc.Client) *Client {
	return &Client{dir: dir, rpc: rpc}
}

// Run executes one command on the named host.
func (c *Client) Run(ctx context.Context, host names.Name, command string, args []string, stdin string) (string, uint32, error) {
	b, err := c.dir.Import(ctx, ServiceName, Program, Version, host)
	if err != nil {
		return "", 0, err
	}
	argv := make([]marshal.Value, 0, len(args))
	for _, a := range args {
		argv = append(argv, marshal.Str(a))
	}
	ret, err := c.rpc.Call(ctx, b, procRun, marshal.StructV(
		marshal.Str(command), marshal.ListV(argv...), marshal.Str(stdin),
	))
	if err != nil {
		return "", 0, err
	}
	exit, _ := ret.Items[0].AsU32()
	out, _ := ret.Items[1].AsString()
	return out, exit, nil
}

// RunEverywhere executes one command on every named host concurrently and
// gathers the results in host order. Per-host failures land in the Result,
// not an aggregate error — partial completion is the useful outcome on a
// heterogeneous fleet.
func (c *Client) RunEverywhere(ctx context.Context, hosts []names.Name, command string, args []string, stdin string) []Result {
	results := make([]Result, len(hosts))
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(i int, h names.Name) {
			defer wg.Done()
			out, exit, err := c.Run(ctx, h, command, args, stdin)
			results[i] = Result{Host: h.Individual, Stdout: out, Exit: exit, Err: err}
		}(i, h)
	}
	wg.Wait()
	return results
}
