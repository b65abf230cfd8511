package gateway

import (
	"context"
	"sync/atomic"

	"hns/internal/core"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
)

// Pool is a Finder over several equivalent HNS backends: calls rotate
// round-robin for load spreading and fail over to the next backend when
// one is unreachable. Resolution is read-only and every hnsd serves the
// same namespace (each with its own meta-cache), so any backend can
// answer any call — this is the gateway-side arrangement for a sharded
// meta-store, where the shard fan-in happens inside each hnsd's meta
// client rather than at the gateway.
type Pool struct {
	backends []*core.RemoteHNS
	next     atomic.Uint64
	failover *metrics.Counter // gateway_pool_failover_total
}

// NewPool builds a round-robin Finder over the bindings. The client
// carries the pool's connections, breakers, and deadline propagation,
// exactly as with a single backend.
func NewPool(client *hrpc.Client, backends []hrpc.Binding) *Pool {
	p := &Pool{failover: metrics.Default().Counter("gateway_pool_failover_total")}
	for _, b := range backends {
		p.backends = append(p.backends, core.NewRemoteHNS(client, b))
	}
	return p
}

// pick orders the backends for one call: the rotor's choice first, then
// the rest as failover candidates.
func (p *Pool) pick() []*core.RemoteHNS {
	n := len(p.backends)
	start := int(p.next.Add(1)-1) % n
	ordered := make([]*core.RemoteHNS, 0, n)
	for i := 0; i < n; i++ {
		ordered = append(ordered, p.backends[(start+i)%n])
	}
	return ordered
}

// FindNSM implements core.Finder with rotation and failover.
func (p *Pool) FindNSM(ctx context.Context, name names.Name, queryClass string) (hrpc.Binding, error) {
	var lastErr error
	for i, r := range p.pick() {
		b, err := r.FindNSM(ctx, name, queryClass)
		if err == nil {
			return b, nil
		}
		lastErr = err
		// Only unreachability moves on: an authoritative answer (no such
		// context, bad name) is the same from every backend.
		if !hrpc.Unavailable(err) {
			break
		}
		if i < len(p.backends)-1 {
			p.failover.Inc()
		}
	}
	return hrpc.Binding{}, lastErr
}

// FindNSMBatch implements the batch interface the same way, keeping the
// gateway's batch amortization across a backend pool.
func (p *Pool) FindNSMBatch(ctx context.Context, qs []core.NameQuery) ([]core.FindResult, error) {
	var lastErr error
	for i, r := range p.pick() {
		res, err := r.FindNSMBatch(ctx, qs)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !hrpc.Unavailable(err) {
			break
		}
		if i < len(p.backends)-1 {
			p.failover.Inc()
		}
	}
	return nil, lastErr
}
