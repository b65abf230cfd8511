package shard

import (
	"context"
	"fmt"
	"testing"

	"hns/internal/bind"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// testMap builds an n-member map with in-process addresses.
func testMap(n int, epoch uint32, seed uint64) Map {
	m := Map{Epoch: epoch, Seed: seed}
	for i := 0; i < n; i++ {
		m.Members = append(m.Members, Member{
			ID:   fmt.Sprintf("s%d", i),
			Addr: fmt.Sprintf("shard%d:bind-hrpc", i),
		})
	}
	return m
}

// env is a full in-process shard deployment: n bindd-shaped servers,
// each gated by a Serving over the same map, plus a shard-aware Client
// routing across them.
type env struct {
	t        *testing.T
	model    *simtime.Model
	net      *transport.Network
	reg      *metrics.Registry
	m        Map
	servers  []*bind.Server
	servings []*Serving
	lns      []transport.Listener
	direct   []*bind.HRPCClient // one plain client per shard
	rpc      *hrpc.Client
	client   *Client
}

func newEnv(t *testing.T, n int) *env {
	t.Helper()
	return newEnvWithMap(t, testMap(n, 1, 0))
}

// newEnvWithMap deploys one shard per member of m.
func newEnvWithMap(t *testing.T, m Map) *env {
	t.Helper()
	e := &env{
		t:     t,
		model: simtime.Default(),
		reg:   metrics.NewRegistry(),
		m:     m,
	}
	e.net = transport.NewNetwork(e.model)
	e.rpc = hrpc.NewClient(e.net)
	e.rpc.Metrics = e.reg
	t.Cleanup(func() { e.rpc.Close() })
	for i := range m.Members {
		srv := bind.NewServer(fmt.Sprintf("shard%d", i), e.model)
		z, err := bind.NewZone("hns", true)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddZone(z); err != nil {
			t.Fatal(err)
		}
		sv, err := Serve(srv, ServingConfig{
			ID:      e.m.Members[i].ID,
			Zone:    "hns",
			Map:     e.m,
			Metrics: e.reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, b, err := srv.ServeHRPC(e.net, e.m.Members[i].Addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		e.lns = append(e.lns, ln)
		e.servers = append(e.servers, srv)
		e.servings = append(e.servings, sv)
		e.direct = append(e.direct, bind.NewHRPCClient(e.rpc, b))
	}
	c, err := NewClient(ClientConfig{
		Zone:    "hns",
		Members: e.m.Members,
		Dial:    NewDialer(e.rpc, hrpc.SuiteRaw),
		Model:   e.model,
		Metrics: e.reg,
		RouterConfig: RouterConfig{
			Metrics: e.reg,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.client = c
	return e
}

// shardOf finds which env server owns name under the current map.
func (e *env) shardOf(name string) int {
	owner, ok := e.m.Owner(name)
	if !ok {
		e.t.Fatalf("no owner for %q", name)
	}
	for i, mem := range e.m.Members {
		if mem.ID == owner.ID {
			return i
		}
	}
	e.t.Fatalf("owner %q not in env", owner.ID)
	return -1
}

func metaRR(name, payload string) bind.RR {
	return bind.HNSMeta(name, payload, 600)
}

func TestClientRoutesToOwnerOnly(t *testing.T) {
	e := newEnv(t, 4)
	ctx := context.Background()

	// Updates land on exactly the owning shard; lookups come back from it.
	for i := 0; i < 32; i++ {
		name := fmt.Sprintf("ctx-%d.hns", i)
		if _, err := e.client.Update(ctx, "hns", bind.UpdateAdd, metaRR(name, "v=1")); err != nil {
			t.Fatalf("update %s: %v", name, err)
		}
		own := e.shardOf(name)
		for s, srv := range e.servers {
			rrs, err := srv.Zone("hns").Lookup(name, bind.TypeHNSMeta)
			if err != nil {
				t.Fatal(err)
			}
			if (len(rrs) > 0) != (s == own) {
				t.Fatalf("%s: shard %d has %d records, owner is %d", name, s, len(rrs), own)
			}
		}
		rrs, err := e.client.Lookup(ctx, name, bind.TypeHNSMeta)
		if err != nil || len(rrs) != 1 || string(rrs[0].Data) != "v=1" {
			t.Fatalf("lookup %s = %v, %v", name, rrs, err)
		}
	}
	if got := e.reg.Counter("shard_redirect_total").Value(); got != 0 {
		t.Fatalf("warm-map updates produced %d redirects, want 0", got)
	}
}

func TestDirectUpdateToNonOwnerIsNotOwner(t *testing.T) {
	e := newEnv(t, 2)
	ctx := context.Background()
	name := "direct.hns"
	own := e.shardOf(name)
	other := 1 - own

	// The owner takes it.
	if _, err := e.direct[own].Update(ctx, "hns", bind.UpdateAdd, metaRR(name, "v=1")); err != nil {
		t.Fatalf("owner refused: %v", err)
	}
	// The non-owner redirects with the typed error, in-band (the
	// endpoint's breaker must not see a failure).
	_, err := e.direct[other].Update(ctx, "hns", bind.UpdateAdd, metaRR(name, "v=2"))
	var noe *bind.NotOwnerError
	if !asNotOwner(err, &noe) {
		t.Fatalf("non-owner answered %v, want *bind.NotOwnerError", err)
	}
	if noe.Name != name || noe.Zone != "hns" {
		t.Fatalf("redirect = %+v", noe)
	}
	if got := counterValue(e.reg, "shard_notowner_total", e.m.Members[other].ID); got != 1 {
		t.Fatalf("shard_notowner_total = %d, want 1", got)
	}
}

func asNotOwner(err error, noe **bind.NotOwnerError) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*bind.NotOwnerError)
	if ok {
		*noe = e
	}
	return ok
}

func counterValue(reg *metrics.Registry, name, shardID string) int64 {
	return reg.Counter(metrics.Labels(name, "shard", shardID)).Value()
}

func TestClientRetriesThroughMapRefreshOnRedirect(t *testing.T) {
	e := newEnv(t, 4)
	ctx := context.Background()

	// Warm the client's map at epoch 1.
	if _, err := e.client.Update(ctx, "hns", bind.UpdateAdd, metaRR("warm.hns", "v=1")); err != nil {
		t.Fatal(err)
	}

	// Re-deal the namespace: same members, new seed, epoch 2, installed
	// on every shard — the client's cached map is now stale.
	next := testMap(4, 2, 99)
	for _, sv := range e.servings {
		if err := sv.SetMap(next, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Find a name whose owner moved between the epochs.
	moved := ""
	for i := 0; i < 4096; i++ {
		name := fmt.Sprintf("moved-%d.hns", i)
		a, _ := e.m.Owner(name)
		b, _ := next.Owner(name)
		if a.ID != b.ID {
			moved = name
			break
		}
	}
	if moved == "" {
		t.Fatal("no name moved between the seeds")
	}

	// The client still routes by epoch 1, hits a non-owner, gets the
	// NOTOWNER redirect, refreshes to epoch 2, and lands the update on
	// the new owner — one retry, invisible to the caller.
	if _, err := e.client.Update(ctx, "hns", bind.UpdateAdd, metaRR(moved, "v=2")); err != nil {
		t.Fatalf("redirected update failed: %v", err)
	}
	if got := e.reg.Counter("shard_redirect_total").Value(); got != 1 {
		t.Fatalf("shard_redirect_total = %d, want 1", got)
	}
	if got := e.reg.Counter("shard_redirect_retry_ok_total").Value(); got != 1 {
		t.Fatalf("shard_redirect_retry_ok_total = %d, want 1", got)
	}
	owner, _ := next.Owner(moved)
	mem, _ := next.Member(owner.ID)
	var idx int
	for i, mm := range next.Members {
		if mm.ID == mem.ID {
			idx = i
		}
	}
	rrs, err := e.servers[idx].Zone("hns").Lookup(moved, bind.TypeHNSMeta)
	if err != nil || len(rrs) != 1 || string(rrs[0].Data) != "v=2" {
		t.Fatalf("new owner zone = %v, %v", rrs, err)
	}
}

func TestTransferMergesAllShards(t *testing.T) {
	e := newEnv(t, 4)
	ctx := context.Background()
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("xfer-%d.hns", i)
		if _, err := e.client.Update(ctx, "hns", bind.UpdateAdd, metaRR(name, "v=1")); err != nil {
			t.Fatal(err)
		}
	}
	serial, rrs, err := e.client.Transfer(ctx, "hns")
	if err != nil {
		t.Fatal(err)
	}
	// 24 data records + 1 merged map record (identical on every shard).
	data, maps := 0, 0
	for _, rr := range rrs {
		if rr.Name == MapName("hns") {
			maps++
		} else {
			data++
		}
	}
	if data != 24 || maps != 1 {
		t.Fatalf("merged transfer: %d data, %d map records (want 24, 1)", data, maps)
	}
	var want uint32
	for _, srv := range e.servers {
		if s := srv.Zone("hns").Serial(); s > want {
			want = s
		}
	}
	if serial != want {
		t.Fatalf("merged serial = %d, want max member serial %d", serial, want)
	}
	probe, err := e.client.Serial(ctx, "hns")
	if err != nil || probe != want {
		t.Fatalf("Serial = %d, %v want %d", probe, err, want)
	}
}

func TestUnshardedZoneOnSameServerUngated(t *testing.T) {
	e := newEnv(t, 2)
	ctx := context.Background()
	other, err := bind.NewZone("plain.test", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.servers[0].AddZone(other); err != nil {
		t.Fatal(err)
	}
	// Any shard accepts updates for a zone outside the sharded one.
	if rcode, _, err := e.servers[0].Update(ctx, "plain.test", bind.UpdateAdd,
		bind.A("x.plain.test", "1", 60)); err != nil || rcode != bind.RCodeOK {
		t.Fatalf("unsharded zone gated: %v %v", rcode, err)
	}
}

// TestKillOneShardLosesExactlyItsSlice is the blast-radius contract:
// with one of four shards dead, exactly the names it owns stop answering
// and every other name still answers without a single call to the dead
// endpoint. The map (seed 1987, members b0..b3) and the namespace are
// pinned, so the victim's slice is an exact count: 32 of the first 128
// names, 63 of all 256 — at most a fair share either way.
func TestKillOneShardLosesExactlyItsSlice(t *testing.T) {
	m := Map{Epoch: 1, Seed: 1987}
	for i := 0; i < 4; i++ {
		m.Members = append(m.Members, Member{
			ID:   fmt.Sprintf("b%d", i),
			Addr: fmt.Sprintf("bshard%d:bind-hrpc", i),
		})
	}
	e := newEnvWithMap(t, m)
	e.rpc.FreshConn = true // every call dials, so a dead listener is seen at once
	ctx := context.Background()

	victim := m.Members[len(m.Members)-1]
	names := make([]string, 256)
	owned := 0
	for i := range names {
		names[i] = fmt.Sprintf("n%04d.hns", i)
		if m.Owns(victim.ID, names[i]) {
			owned++
		}
		if i == 127 && owned != 32 {
			t.Fatalf("victim %s owns %d of the first 128 names, want 32", victim.ID, owned)
		}
		if _, err := e.client.Update(ctx, "hns", bind.UpdateAdd, metaRR(names[i], names[i])); err != nil {
			t.Fatalf("update %s: %v", names[i], err)
		}
	}
	if owned != 63 {
		t.Fatalf("victim %s owns %d of 256 names, want 63", victim.ID, owned)
	}
	for _, name := range names {
		if _, err := e.client.Lookup(ctx, name, bind.TypeHNSMeta); err != nil {
			t.Fatalf("pre-kill lookup %s: %v", name, err)
		}
	}

	e.lns[len(e.lns)-1].Close()
	victimCalls := e.reg.Histogram(metrics.Labels("hrpc_client_call_ms", "addr", victim.Addr))
	kept := 0
	for _, name := range names {
		before := victimCalls.Count()
		rrs, err := e.client.Lookup(ctx, name, bind.TypeHNSMeta)
		if m.Owns(victim.ID, name) {
			if err == nil {
				t.Fatalf("%s is owned by the dead shard but answered %v", name, rrs)
			}
			if victimCalls.Count() == before {
				t.Fatalf("%s failed without a call to its owner %s", name, victim.Addr)
			}
			continue
		}
		if err != nil || len(rrs) != 1 || string(rrs[0].Data) != name {
			t.Fatalf("survivor %s = %v, %v", name, rrs, err)
		}
		if victimCalls.Count() != before {
			t.Fatalf("survivor %s was resolved with a call to the dead endpoint", name)
		}
		kept++
	}
	if kept != len(names)-owned {
		t.Fatalf("kept %d names, want %d (all but the victim's slice)", kept, len(names)-owned)
	}
}
