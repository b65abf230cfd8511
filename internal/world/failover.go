package world

import (
	"context"
	"time"

	"hns/internal/bind"
	"hns/internal/core"
	"hns/internal/health"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/transport"
)

// The meta replicas a Failover's clients fail over between, in order.
const (
	MetaPrimary = addrMeta + ":bind-hrpc"
	MetaMirror  = "tahoma2:bind-hrpc"
)

// FailoverCooldown is how long a Failover client's breaker keeps a
// silent replica out of rotation: about four ops at one op per meta TTL.
const FailoverCooldown = 40 * time.Minute

// chaosTransport is the transport a Failover's clients dial.
const chaosTransport = "tcp-chaos"

// Failover is the meta BIND made to lose a replica: a standard BIND
// secondary at MetaMirror that mirrors the meta zone by zone transfer
// and serves the identical HRPC interface, and a chaos transport over
// the simulated tcp, so the faults Plan injects hit meta traffic and
// nothing else. Endpoints listen on the inner transport, so a recovered
// replica needs no re-binding.
type Failover struct {
	// Plan injects the faults, keyed by MetaPrimary and MetaMirror.
	Plan *transport.Plan
	w    *World
}

// StartFailover mirrors the (registered) meta zone onto MetaMirror and
// registers the chaos transport under a Plan seeded with seed. The
// mirror closes with the world.
func (w *World) StartFailover(ctx context.Context, seed int64) (*Failover, error) {
	sec, err := bind.NewSecondary(w.MetaHRPCClient(), MetaZone, "tahoma2")
	if err != nil {
		return nil, err
	}
	if _, err := sec.Refresh(ctx); err != nil {
		return nil, err
	}
	ln, _, err := sec.Server().ServeHRPC(w.Net, MetaMirror)
	if err := w.listen(ln, err); err != nil {
		return nil, err
	}
	inner, err := w.Net.Transport("tcp")
	if err != nil {
		return nil, err
	}
	plan := transport.NewPlan(seed)
	w.Net.Register(transport.NewChaos(inner, chaosTransport, plan))
	return &Failover{Plan: plan, w: w}, nil
}

// NewHNS builds an HNS whose meta client fails over from MetaPrimary to
// MetaMirror. The client dials per call (the Raw suite discipline) over
// the chaos transport with a one-second retry budget, and its breakers
// open after health.Threshold failures for FailoverCooldown on the
// world's clock. The HNS serves expired meta answers for up to a day
// while no replica answers, and both HostAddress NSMs are linked. reg
// receives the client's, the breakers' and the HNS's series.
func (f *Failover) NewHNS(reg *metrics.Registry) *core.HNS {
	w := f.w
	mc := hrpc.NewClient(w.Net)
	mc.FreshConn = true
	mc.Metrics = reg
	mc.Policy = hrpc.RetryPolicy{Budget: time.Second}
	mc.Health = health.Config{
		Cooldown: FailoverCooldown,
		Clock:    w.Clock,
		Metrics:  reg,
		Service:  "meta-bind",
	}
	mc.SetReplicas(MetaPrimary, MetaMirror)
	mb := w.MetaHRPC
	mb.Transport = chaosTransport
	h := core.New(bind.NewHRPCClient(mc, mb), core.Config{
		MetaZone:   MetaZone,
		CacheMode:  bind.CacheMarshalled,
		Clock:      w.Clock,
		ServeStale: 24 * time.Hour,
		RPC:        w.RPC,
		Metrics:    reg,
	})
	h.LinkHostResolver(NSBind, w.BindHostNSM)
	h.LinkHostResolver(NSCH, w.CHHostNSM)
	return h
}
