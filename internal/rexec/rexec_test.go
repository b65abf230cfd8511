package rexec_test

import (
	"context"
	"strings"
	"testing"

	"hns/internal/clearinghouse"
	"hns/internal/hcs"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/rexec"
	"hns/internal/world"
)

// rexecEnv has execution servers on a UNIX host (fiji, Sun RPC) and a
// Xerox host (Courier, CH-bound).
type rexecEnv struct {
	w         *world.World
	client    *rexec.Client
	unixName  names.Name
	xeroxName names.Name
	unixSrv   *rexec.Server
}

const xeroxExecObject = "compute:cs:uw"

func newRexecEnv(t *testing.T) *rexecEnv {
	t.Helper()
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ctx := context.Background()

	unix := rexec.NewServer("fiji")
	lnU, bU, err := hrpc.Serve(w.Net, unix.HRPCServer(), hrpc.SuiteSunRPC, "fiji", "fiji:rexec")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnU.Close() })
	w.Portmappers["fiji"].Set(rexec.Program, rexec.Version, "udp", bU.Addr)

	xerox := rexec.NewServer("xerox-d0")
	lnX, bX, err := hrpc.Serve(w.Net, xerox.HRPCServer(), hrpc.SuiteCourier, "xerox-d0", "xerox:rexec")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnX.Close() })
	if err := w.CHClient().AddItem(ctx, clearinghouse.MustName(xeroxExecObject),
		clearinghouse.PropBinding, []byte(qclass.FormatBinding(bX))); err != nil {
		t.Fatal(err)
	}

	return &rexecEnv{
		w:         w,
		client:    rexec.NewClient(hcs.New(w.HNS, w.RPC), w.RPC),
		unixName:  names.Must(world.CtxBind, world.HostBind),
		xeroxName: names.Must(world.CtxCH, xeroxExecObject),
		unixSrv:   unix,
	}
}

func TestRunBothWorlds(t *testing.T) {
	env := newRexecEnv(t)
	ctx := context.Background()
	for _, host := range []names.Name{env.unixName, env.xeroxName} {
		out, exit, err := env.client.Run(ctx, host, "echo", []string{"hello", "hcs"}, "")
		if err != nil || exit != 0 {
			t.Fatalf("%s: %v exit %d", host, err, exit)
		}
		if out != "hello hcs\n" {
			t.Fatalf("%s: out = %q", host, out)
		}
	}
}

func TestHostnameRevealsHeterogeneity(t *testing.T) {
	// Loose integration: the fleet is reachable uniformly, but nothing
	// masks what each machine is.
	env := newRexecEnv(t)
	ctx := context.Background()
	out1, _, err := env.client.Run(ctx, env.unixName, "hostname", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	out2, _, err := env.client.Run(ctx, env.xeroxName, "hostname", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if out1 == out2 {
		t.Fatalf("hosts indistinct: %q vs %q", out1, out2)
	}
}

func TestStdinAndCustomCommand(t *testing.T) {
	env := newRexecEnv(t)
	ctx := context.Background()
	out, exit, err := env.client.Run(ctx, env.unixName, "wc", nil, "one two three\nfour")
	if err != nil || exit != 0 || out != "4\n" {
		t.Fatalf("wc = %q exit %d err %v", out, exit, err)
	}
	env.unixSrv.RegisterCommand("rev", func(ctx context.Context, args []string, stdin string) (string, uint32) {
		r := []rune(stdin)
		for i, j := 0, len(r)-1; i < j; i, j = i+1, j-1 {
			r[i], r[j] = r[j], r[i]
		}
		return string(r), 0
	})
	out, _, err = env.client.Run(ctx, env.unixName, "rev", nil, "sosp")
	if err != nil || out != "psos" {
		t.Fatalf("rev = %q, %v", out, err)
	}
}

func TestUnknownCommand(t *testing.T) {
	env := newRexecEnv(t)
	_, _, err := env.client.Run(context.Background(), env.unixName, "format-disk", nil, "")
	if err == nil || !strings.Contains(err.Error(), "command not found") {
		t.Fatalf("unknown command: %v", err)
	}
}

func TestCommandsList(t *testing.T) {
	env := newRexecEnv(t)
	cmds := env.unixSrv.Commands()
	want := []string{"echo", "hostname", "wc"}
	if len(cmds) != len(want) {
		t.Fatalf("Commands = %v", cmds)
	}
	for i := range want {
		if cmds[i] != want[i] {
			t.Fatalf("Commands = %v", cmds)
		}
	}
}

func TestRunEverywhere(t *testing.T) {
	env := newRexecEnv(t)
	hosts := []names.Name{env.unixName, env.xeroxName,
		names.Must(world.CtxBind, "ghost.cs.washington.edu")} // one dead host
	results := env.client.RunEverywhere(context.Background(), hosts, "hostname", nil, "")
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Err != nil || !strings.Contains(results[0].Stdout, "fiji") {
		t.Fatalf("fiji result = %+v", results[0])
	}
	if results[1].Err != nil || !strings.Contains(results[1].Stdout, "xerox") {
		t.Fatalf("xerox result = %+v", results[1])
	}
	// The dead host fails alone; the fleet result survives.
	if results[2].Err == nil {
		t.Fatal("ghost host succeeded")
	}
}
