package daemon

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/names"
	"hns/internal/nsm"
	"hns/internal/qclass"
	"hns/internal/store"
	"hns/internal/transport"
)

// TestFederation starts the shipped arrangement through the daemons'
// own constructors on loopback: a durable meta bindd with push on, an
// app bindd with its standard interface, nsmd -type hostaddr-bind, and
// hnsd chained and subscribed. It resolves a name end to end, acks one
// RegisterNSM, crashes the meta bindd at a seeded disk write, restarts it
// on the same address from the disk image, and once hnsd's subscription
// has caught up resolves the acked binding through hnsd.
func TestFederation(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { federation(t, seed) })
	}
}

func federation(t *testing.T, seed int64) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	started := func(d *Daemon, err error) *Daemon {
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

	disk := store.NewMemFS()
	plan := store.NewFaultPlan(seed)
	metaCfg := BinddConfig{Host: "tahoma", Zones: List{"hns"}, Update: true, Push: true,
		HRPC: "127.0.0.1:0", FS: store.NewFaultFS(disk, plan)}
	meta := started(Bindd(metaCfg))
	app := started(Bindd(BinddConfig{Host: "fiji", Zones: List{"cs.washington.edu"}, Update: true,
		Records: zoneFile, HRPC: "127.0.0.1:0", Std: "127.0.0.1:0"}))
	nsmd := started(Nsmd(NsmdConfig{Host: "june", Addr: "127.0.0.1:0", Type: "hostaddr-bind", NS: "bind-cs",
		BindStd: app.StdAddr()}))
	hnsd := started(Hnsd(HnsdConfig{Host: "hns", Addr: "127.0.0.1:0", Meta: meta.Addr(), MetaZone: "hns",
		Subscribe: true, LinkBind: List{"bind-cs=" + app.StdAddr()}}))

	rpc := hrpc.NewClient(transport.NewNetwork())
	defer rpc.Close()
	admin := core.New(bind.NewHRPCClient(rpc, hrpc.SuiteRawNet.Bind(meta.Addr(), meta.Addr(), bind.HRPCProgram, bind.HRPCVersion)),
		core.Config{MetaZone: "hns", RPC: rpc})
	_, port, _ := net.SplitHostPort(nsmd.Addr())
	nsmInfo := func(name, ns string) core.NSMInfo {
		return core.NSMInfo{Name: name, NameService: ns, QueryClass: qclass.HostAddress, Host: "june.cs.washington.edu",
			HostContext: "hostaddr-bind", Port: port, Suite: hrpc.SuiteSunRPCNet}
	}
	for _, step := range []func() error{
		func() error { return admin.RegisterNameService(ctx, "bind-cs", "bind") },
		func() error { return admin.RegisterContext(ctx, "hostaddr-bind", "bind-cs") },
		func() error { return admin.RegisterNSM(ctx, nsmInfo("hostaddr-bind-1", "bind-cs")) },
		func() error { return admin.RegisterNameService(ctx, "bind-cs2", "bind") },
		func() error { return admin.RegisterContext(ctx, "hostaddr-bind2", "bind-cs2") },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	remote := core.NewRemoteHNS(rpc, hrpc.SuiteRawNet.Bind(hnsd.Addr(), hnsd.Addr(), core.HNSProgram, core.HNSVersion))
	resolve := func(context string) {
		t.Helper()
		name := names.Must(context, "fiji.cs.washington.edu")
		b, err := remote.FindNSM(ctx, name, qclass.HostAddress)
		if err != nil {
			t.Fatalf("FindNSM %s: %v", name, err)
		}
		if b.Addr != nsmd.Addr() {
			t.Fatalf("FindNSM %s = %s, want nsmd at %s", name, b.Addr, nsmd.Addr())
		}
		if addr, err := nsm.CallResolveHost(ctx, rpc, b, name); err != nil || addr != "127.0.0.1" {
			t.Fatalf("resolving %s through nsmd: %q, %v", name, addr, err)
		}
	}
	resolve("hostaddr-bind")

	// The acked registration; then the disk dies at a seeded write among
	// the updates after it.
	if err := admin.RegisterNSM(ctx, nsmInfo("hostaddr-bind-2", "bind-cs2")); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	plan.CrashAfterWrites(1+rng.Intn(3), rng.Intn(2) == 0)
	for i := 0; !plan.Crashed(); i++ {
		if i == 10 {
			t.Fatal("ten updates after the crash point and the disk has not crashed")
		}
		// Acked or refused, all that matters is where the disk dies.
		_ = admin.RegisterNameService(ctx, fmt.Sprintf("junk-%d", i), "bind")
	}
	meta.Close()

	metaCfg.HRPC, metaCfg.FS = meta.Addr(), disk
	started(Bindd(metaCfg))
	if err := hnsd.HNS.MetaSubscription().Sync(ctx); err != nil {
		t.Fatalf("hnsd's subscription after the restart: %v", err)
	}
	resolve("hostaddr-bind2")
	resolve("hostaddr-bind")
}
