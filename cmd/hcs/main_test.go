package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/core"
	"hns/internal/daemon"
	"hns/internal/hrpc"
	"hns/internal/qclass"
	"hns/internal/transport"
)

// TestCommands starts the Clearinghouse world of daemon.TestXeroxWorld
// (chd, hcsd serving exec, filing and a mailbox, binding-ch and mail-ch
// nsmd, hnsd over a meta bindd) beside a hostaddr-bind nsmd, and drives
// every hcs subcommand through hnsd.
func TestCommands(t *testing.T) {
	ctx := context.Background()
	start := func(d *daemon.Daemon, err error) *daemon.Daemon {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	zoneFile := filepath.Join(t.TempDir(), "app.zone")
	if err := os.WriteFile(zoneFile, []byte("fiji.cs.washington.edu 600 A 127.0.0.1\njune.cs.washington.edu 600 A 127.0.0.1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const principal, secret = "hcs:cs:uw", "pw"
	meta := start(daemon.Bindd(daemon.BinddConfig{Host: "tahoma", Zones: daemon.List{"hns"}, Update: true, HRPC: "127.0.0.1:0"}))
	app := start(daemon.Bindd(daemon.BinddConfig{Host: "fiji", Zones: daemon.List{"cs.washington.edu"},
		Records: zoneFile, HRPC: "127.0.0.1:0", Std: "127.0.0.1:0"}))
	ch := start(daemon.Chd(daemon.ChdConfig{Host: "xerox", Addr: "127.0.0.1:0", Open: true}))
	start(daemon.Hcsd(daemon.HcsdConfig{Host: "xerox-d0", CH: ch.Addr(), CHPrincipal: principal, CHSecret: secret,
		ExecObject: "compute:cs:uw", FilesObject: "bigfiles:cs:uw", MailObject: "mailsrv:cs:uw",
		ExecAddr: "127.0.0.1:0", FilesAddr: "127.0.0.1:0", MailAddr: "127.0.0.1:0"}))
	nsmd := func(typ, ns string) *daemon.Daemon {
		return start(daemon.Nsmd(daemon.NsmdConfig{Host: "june", Addr: "127.0.0.1:0", Type: typ, NS: ns,
			BindStd: app.StdAddr(), CH: ch.Addr(), CHPrincipal: principal, CHSecret: secret}))
	}
	hostNSM, bindingNSM, mailNSM := nsmd("hostaddr-bind", "bind-cs"), nsmd("binding-ch", "ch-uw"), nsmd("mail-ch", "ch-uw")
	hnsd := start(daemon.Hnsd(daemon.HnsdConfig{Host: "hns", Addr: "127.0.0.1:0", Meta: meta.Addr(), MetaZone: "hns",
		LinkBind: daemon.List{"bind-cs=" + app.StdAddr()}}))

	rpc := hrpc.NewClient(transport.NewNetwork())
	defer rpc.Close()
	admin := core.New(bind.NewHRPCClient(rpc, hrpc.SuiteRawNet.Bind(meta.Addr(), meta.Addr(), bind.HRPCProgram, bind.HRPCVersion)),
		core.Config{MetaZone: "hns", RPC: rpc})
	onJune := func(name, ns, qc string, d *daemon.Daemon, suite hrpc.Suite) core.NSMInfo {
		_, port, _ := net.SplitHostPort(d.Addr())
		return core.NSMInfo{Name: name, NameService: ns, QueryClass: qc, Host: "june.cs.washington.edu",
			HostContext: "hostaddr-bind", Port: port, Suite: suite}
	}
	chc := clearinghouse.NewClient(rpc, hrpc.SuiteCourierNet.Bind(ch.Addr(), ch.Addr(), clearinghouse.Program, clearinghouse.Version),
		clearinghouse.NewCredentials(principal, secret))
	for _, step := range []func() error{
		func() error { return admin.RegisterNameService(ctx, "bind-cs", "bind") },
		func() error { return admin.RegisterNameService(ctx, "ch-uw", "clearinghouse") },
		func() error { return admin.RegisterContext(ctx, "hostaddr-bind", "bind-cs") },
		func() error { return admin.RegisterContext(ctx, "hrpcbinding-ch", "ch-uw") },
		func() error { return admin.RegisterContext(ctx, "mail-ch", "ch-uw") },
		func() error {
			return admin.RegisterNSM(ctx, onJune("hostaddr-bind-1", "bind-cs", qclass.HostAddress, hostNSM, hrpc.SuiteSunRPCNet))
		},
		func() error {
			return admin.RegisterNSM(ctx, onJune("binding-ch-1", "ch-uw", qclass.HRPCBinding, bindingNSM, hrpc.SuiteCourierNet))
		},
		func() error {
			return admin.RegisterNSM(ctx, onJune("mail-ch-1", "ch-uw", qclass.MailRoute, mailNSM, hrpc.SuiteCourierNet))
		},
		func() error {
			return chc.AddItem(ctx, clearinghouse.MustName("notkin:cs:uw"), clearinghouse.PropMailbox, []byte("mailsrv:cs:uw"))
		},
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		cmd, args []string
		want      string
	}{
		{[]string{"resolve"}, []string{"hostaddr-bind", "fiji.cs.washington.edu"}, "hostaddr-bind!fiji.cs.washington.edu -> 127.0.0.1\n"},
		{[]string{"exec"}, []string{"hrpcbinding-ch!compute:cs:uw", "echo", "loose", "integration"}, "loose integration\n"},
		{[]string{"file", "put"}, []string{"hrpcbinding-ch!bigfiles:cs:uw", "/notes/xerox", "written through the HNS"}, ""},
		{[]string{"file", "get"}, []string{"hrpcbinding-ch!bigfiles:cs:uw", "/notes/xerox"}, "written through the HNS"},
		{[]string{"file", "ls"}, []string{"hrpcbinding-ch!bigfiles:cs:uw", "/notes/"}, "/notes/xerox\n"},
		{[]string{"mail", "send"}, []string{"mail-ch!notkin:cs:uw", "schwartz", "hns", "it binds"}, "delivered, message id 1\n"},
		{[]string{"mail", "read"}, []string{"mail-ch!notkin:cs:uw"}, "   1  schwartz             hns\n"},
	} {
		args := append(append(c.cmd, "-hns", hnsd.Addr(), "-world", "grapevine=hrpcbinding-ch"), c.args...)
		var out strings.Builder
		if err := run(args, &out); err != nil || out.String() != c.want {
			t.Errorf("hcs %s printed %q (%v), want %q", strings.Join(args, " "), out.String(), err, c.want)
		}
	}
}
