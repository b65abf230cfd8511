// fleet_shard.go adds the sharded-meta-store axis to the fleet engine:
// with FleetSpec.MetaShards > 0 the authoritative tier is N bindd shards
// partitioning the meta zone by rendezvous hash, and every site's hnsd
// talks to them through a shard-aware client (owner-routed lookups, map
// cached like any meta record). MetaShards = 0 — the default — builds
// exactly the single-meta-bindd fleet of before, which is what keeps the
// `hnsbench -prose scale` matrix and the paper tables bit-identical.
package workload

import (
	"context"
	"fmt"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/health"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/shard"
	"hns/internal/simtime"
	"hns/internal/transport"
	"hns/internal/world"
)

// FleetShardAddr is the deterministic HRPC address of fleet shard i.
func FleetShardAddr(i int) string { return fmt.Sprintf("fshard%d:bind-hrpc", i) }

// FleetShardMembers is the deterministic member set for an n-shard fleet
// meta-store — shared by the fleet builder and the chaos scenarios, so a
// scenario can aim faults at a shard without holding the built servers.
func FleetShardMembers(n int) []shard.Member {
	members := make([]shard.Member, 0, n)
	for i := 0; i < n; i++ {
		members = append(members, shard.Member{
			ID:   fmt.Sprintf("fs%d", i),
			Addr: FleetShardAddr(i),
		})
	}
	return members
}

// fleetShards is one pass's sharded authoritative tier.
type fleetShards struct {
	m         shard.Map
	servers   []*bind.Server
	servings  []*shard.Serving
	listeners []transport.Listener
	reg       *metrics.Registry // the shards' own shard_* series
}

func (fs *fleetShards) Close() {
	for _, ln := range fs.listeners {
		ln.Close()
	}
}

// buildFleetShards stands up the sharded meta tier: n bindd-shaped
// servers, each authoritative for the meta zone, loaded with exactly the
// slice of the (already fully registered) world meta zone it owns, and
// gated for ownership. The world's own meta bindd stays up — scenarios
// and secondaries may still transfer from it — but sharded sites never
// call it.
func buildFleetShards(ctx context.Context, w *world.World, n int, seed int64) (*fleetShards, error) {
	fs := &fleetShards{
		m:   shard.Map{Epoch: 1, Seed: uint64(seed), Members: FleetShardMembers(n)},
		reg: metrics.NewRegistry(),
	}
	serial, rrs, err := w.MetaHRPCClient().Transfer(ctx, world.MetaZone)
	if err != nil {
		return nil, fmt.Errorf("workload: seeding shards: %w", err)
	}
	ok := false
	defer func() {
		if !ok {
			fs.Close()
		}
	}()
	for i, mem := range fs.m.Members {
		srv := bind.NewServer(fmt.Sprintf("fshard%d", i), w.Model)
		z, err := bind.NewZone(world.MetaZone, true)
		if err != nil {
			return nil, err
		}
		if err := srv.AddZone(z); err != nil {
			return nil, err
		}
		owned := make([]bind.RR, 0, len(rrs)/n+1)
		for _, rr := range rrs {
			if fs.m.Owns(mem.ID, rr.Name) {
				owned = append(owned, rr)
			}
		}
		if err := z.Replace(owned, serial); err != nil {
			return nil, err
		}
		serving, err := shard.Serve(srv, shard.ServingConfig{
			ID:      mem.ID,
			Zone:    world.MetaZone,
			Map:     fs.m,
			Metrics: fs.reg,
		})
		if err != nil {
			return nil, err
		}
		ln, _, err := srv.ServeHRPC(w.Net, mem.Addr)
		if err != nil {
			return nil, err
		}
		fs.servers = append(fs.servers, srv)
		fs.servings = append(fs.servings, serving)
		fs.listeners = append(fs.listeners, ln)
	}
	ok = true
	return fs, nil
}

// ShardSiteOptions tune a site HNS built over the sharded meta tier.
type ShardSiteOptions struct {
	// Transport overrides the dial transport (a chaos wrapper); "" uses
	// the simulated tcp directly.
	Transport string
	// StaleFor enables serve-stale on the site's meta cache and shard-map
	// router for that long past expiry.
	StaleFor time.Duration
	// Breakers enables the per-endpoint health breakers and retry budget
	// of the availability arrangement (the PR 3 discipline), so a dead
	// shard is discovered once per site, not once per client.
	Breakers bool
}

// newShardSiteHNS builds one site's HNS over the sharded meta-store: the
// resolver stack is the standard one, only the meta client differs — a
// shard.Client routing by ownership instead of a single HRPC client.
func newShardSiteHNS(w *world.World, clk *simtime.FakeClock, members []shard.Member, reg *metrics.Registry, opt ShardSiteOptions) (*core.HNS, error) {
	mc := hrpc.NewClient(w.Net)
	mc.FreshConn = true // Raw suite discipline: dial per call
	mc.Metrics = reg
	if opt.Breakers {
		mc.Policy = hrpc.RetryPolicy{Budget: time.Second}
		mc.Health = health.Config{
			Threshold: 3,
			Cooldown:  40 * time.Minute,
			Clock:     clk,
			Metrics:   reg,
			Service:   "meta-shard",
		}
	}
	suite := hrpc.SuiteRaw
	if opt.Transport != "" {
		suite.Transport = opt.Transport
	}
	sc, err := shard.NewClient(shard.ClientConfig{
		Zone:    world.MetaZone,
		Members: members,
		Dial:    shard.NewDialer(mc, suite),
		Model:   w.Model,
		Metrics: reg,
		RouterConfig: shard.RouterConfig{
			Zone:     world.MetaZone,
			Clock:    clk,
			StaleFor: opt.StaleFor,
			Metrics:  reg,
		},
	})
	if err != nil {
		return nil, err
	}
	h := core.New(sc, w.Model, core.Config{
		MetaZone:   world.MetaZone,
		CacheMode:  bind.CacheMarshalled,
		Clock:      clk,
		ServeStale: opt.StaleFor,
		RPC:        w.RPC,
		Metrics:    reg,
	})
	h.LinkHostResolver(world.NSBind, w.BindHostNSM)
	h.LinkHostResolver(world.NSCH, w.CHHostNSM)
	return h, nil
}
