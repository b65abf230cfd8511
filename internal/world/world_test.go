package world_test

import (
	"context"
	"testing"

	"hns/internal/bind"
	"hns/internal/clearinghouse"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/world"
)

func TestWorldStandsUp(t *testing.T) {
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Every major component answers.
	ctx := context.Background()
	if rrs, err := w.BindStdClient().Lookup(ctx, world.HostBind, bind.TypeA); err != nil || len(rrs) == 0 {
		t.Fatalf("BIND lookup: %v, %v", rrs, err)
	}
	if v, err := w.CHClient().Retrieve(ctx, clearinghouse.MustName(world.HostXerox), clearinghouse.PropAddress); err != nil || string(v) != "xerox" {
		t.Fatalf("CH lookup: %q, %v", v, err)
	}
	if _, err := w.HNS.FindNSM(ctx, world.DesiredServiceName(), qclass.HRPCBinding); err != nil {
		t.Fatalf("FindNSM: %v", err)
	}
	// The desired Sun service is registered in fiji's portmapper.
	if _, addr, ok := w.Portmappers["fiji"].GetPort(world.DesiredProgram, world.DesiredVersion); !ok || addr == "" {
		t.Fatal("desired service not in portmapper")
	}
}

func TestWorldAddSunService(t *testing.T) {
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	b, err := w.AddSunService("june", "lateservice", 420000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := w.RPC.Call(context.Background(), b, world.EchoProc, world.EchoArgs("late"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ret.Items[0].AsString(); got != "late" {
		t.Fatalf("echo = %q", got)
	}
	if _, err := w.AddSunService("nosuchhost", "svc", 430000, 1); err == nil {
		t.Fatal("service on host without portmapper accepted")
	}
}

func TestWorldCloseIdempotent(t *testing.T) {
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	w.Close() // must not panic
}

func TestWorldCloseStopsListeners(t *testing.T) {
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The BIND standard endpoint answers before Close...
	std := w.BindStdClient()
	if _, err := std.Lookup(context.Background(), world.HostBind, bind.TypeA); err != nil {
		t.Fatal(err)
	}
	std.Close()
	w.Close()
	// ...and refuses after.
	std2 := w.BindStdClient()
	defer std2.Close()
	if _, err := std2.Lookup(context.Background(), world.HostBind, bind.TypeA); err == nil {
		t.Fatal("lookup succeeded after world.Close")
	}
}

func TestAddSyntheticTypeResolvesAndIsIdempotentCost(t *testing.T) {
	w, err := world.New(world.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	c0, err := w.AddSyntheticType(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := w.AddSyntheticType(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c0 != c1 {
		t.Fatalf("integration costs differ: %v vs %v", c0, c1)
	}
	b, err := w.HNS.FindNSM(ctx, names.Must(world.SyntheticContext(1), world.SyntheticHost(1)), qclass.HostAddress)
	if err != nil {
		t.Fatal(err)
	}
	if b.Addr == "" {
		t.Fatal("empty NSM address")
	}
}
