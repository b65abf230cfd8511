package hcs_test

import (
	"context"
	"testing"

	"hns/internal/core"
	"hns/internal/hcs"
	"hns/internal/names"
	"hns/internal/world"
)

func newWorld(t *testing.T) *world.World {
	t.Helper()
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestDirectoryResolveHost(t *testing.T) {
	w := newWorld(t)
	d := hcs.New(w.HNS, w.RPC)
	ctx := context.Background()

	addr, err := d.ResolveHost(ctx, names.Must(world.CtxHostB, world.HostBind))
	if err != nil {
		t.Fatal(err)
	}
	if addr != "fiji" {
		t.Fatalf("ResolveHost = %q", addr)
	}
	addr, err = d.ResolveHost(ctx, names.Must(world.CtxHostCH, world.HostXerox))
	if err != nil {
		t.Fatal(err)
	}
	if addr != "xerox" {
		t.Fatalf("CH ResolveHost = %q", addr)
	}
}

func TestDirectoryImport(t *testing.T) {
	w := newWorld(t)
	d := hcs.New(w.HNS, w.RPC)
	ctx := context.Background()

	b, err := d.Import(ctx, world.DesiredService, world.DesiredProgram,
		world.DesiredVersion, world.DesiredServiceName())
	if err != nil {
		t.Fatal(err)
	}
	ret, err := w.RPC.Call(ctx, b, world.EchoProc, world.EchoArgs("via facade"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ret.Items[0].AsString(); got != "via facade" {
		t.Fatalf("echo = %q", got)
	}
}

func TestDirectoryMailRoute(t *testing.T) {
	w := newWorld(t)
	d := hcs.New(w.HNS, w.RPC)
	host, route, err := d.MailRoute(context.Background(),
		names.Must(world.CtxMailB, world.MailUserBind))
	if err != nil {
		t.Fatal(err)
	}
	if host != world.MailHostBind || route != "smtp" {
		t.Fatalf("MailRoute = %q %q", host, route)
	}
}

func TestDirectoryOverRemoteHNS(t *testing.T) {
	// The facade is Finder-agnostic: same calls through a remote HNS.
	w := newWorld(t)
	ln, hb, err := core.ServeHNS(w.Net, w.HNS, "beaver", "beaver:hns-facade")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d := hcs.New(core.NewRemoteHNS(w.RPC, hb), w.RPC)
	addr, err := d.ResolveHost(context.Background(), names.Must(world.CtxHostB, world.HostBind))
	if err != nil {
		t.Fatal(err)
	}
	if addr != "fiji" {
		t.Fatalf("remote ResolveHost = %q", addr)
	}
}
