// Package nsm implements the Naming Semantics Managers.
//
// "Each NSM understands the semantics of naming for a particular query
// class and a particular name service... The NSMs are neither HNS nor
// application code per se. Rather, they are code managed by the HNS and
// shared by the applications."
//
// Every NSM here answers one query class against one underlying name
// service. All NSMs of a query class expose the identical client interface
// (package qclass), so clients call whichever one FindNSM designates
// without knowing which name service is behind it.
//
// NSMs are deployable two ways, and the choice is the paper's colocation
// trade-off:
//
//   - remote: Server() wraps the NSM in its query-class HRPC program;
//   - linked in: the concrete types expose direct methods (ResolveHost,
//     BindService, MailRoute) callable as local procedures.
//
// Each NSM caches the results of its remote lookups (the prototype's NSMs
// were modified to do the same); cache form is selectable, marshalled or
// demarshalled, with Table 3.2 pricing.
package nsm

import (
	"context"
	"time"

	"hns/internal/bind"
	"hns/internal/cache"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
)

// NSM is what every naming semantics manager provides to the management
// layer: identity plus a servable HRPC program.
type NSM interface {
	// Name is the NSM's registered name (unique in the HNS).
	Name() string
	// QueryClass is the query class it answers.
	QueryClass() string
	// NameService is the underlying service it fronts.
	NameService() string
	// Server wraps the NSM in its query-class HRPC program for remote
	// deployment.
	Server() *hrpc.Server
}

// Options configure an NSM's result cache.
type Options struct {
	// CacheMode selects marshalled or demarshalled entries (Table 3.2
	// pricing); default demarshalled.
	CacheMode bind.CacheMode
	// Clock drives expiry; default real time.
	Clock simtime.Clock
	// StaleFor, when positive, enables serve-stale degraded mode: when
	// the underlying name service is unreachable, the NSM may answer
	// from an expired cache entry up to StaleFor past its expiry. Zero
	// keeps strict TTL semantics.
	StaleFor time.Duration
}

// CacheTTL bounds an NSM cache entry's lifetime: the meta TTL.
const CacheTTL = 10 * time.Minute

// resultCache is the shared caching helper: a TTL cache whose hits are
// priced by cache mode.
type resultCache[V any] struct {
	mode bind.CacheMode
	c    *cache.TTL[V]
}

func newResultCache[V any](o Options) *resultCache[V] {
	rc := &resultCache[V]{mode: o.CacheMode, c: cache.New[V](o.Clock, 0)}
	rc.c.SetStaleGrace(o.StaleFor)
	return rc
}

// get probes the cache, charging the mode-appropriate hit cost.
func (rc *resultCache[V]) get(ctx context.Context, key string) (V, bool) {
	v, ok := rc.c.Get(key)
	if !ok {
		return v, false
	}
	rc.mode.ChargeHit(ctx, 1) // one logical record per entry
	return v, true
}

func (rc *resultCache[V]) put(key string, v V) { rc.c.Put(key, v, CacheTTL) }

// getStale is the serve-stale fallback after a lookup failed with cause
// (cache.TTL.GetStale's rule), priced like a normal hit.
func (rc *resultCache[V]) getStale(ctx context.Context, key string, cause error) (V, bool) {
	v, ok := rc.c.GetStale(key, cause)
	if ok {
		rc.mode.ChargeHit(ctx, 1)
	}
	return v, ok
}

func (rc *resultCache[V]) stats() cache.Stats { return rc.c.Stats() }

// Left implements core.HostResolver: how much longer the NSM keeps the
// address it resolved for individual.
func (h *HostAddr) Left(individual string) time.Duration { return h.cache.c.Left(individual) }

func (rc *resultCache[V]) purge() { rc.c.Purge() }

// ---- Remote invocation helpers: the identical per-class client calls.

// CallResolveHost invokes a HostAddress NSM bound at b.
func CallResolveHost(ctx context.Context, c *hrpc.Client, b hrpc.Binding, name names.Name) (string, error) {
	ret, err := c.Call(ctx, b, qclass.ProcResolveHost, marshal.StructV(
		marshal.Str(name.Context), marshal.Str(name.Individual),
	))
	if err != nil {
		return "", err
	}
	return ret.Items[0].AsString()
}

// CallBindService invokes an HRPCBinding NSM bound at b — the paper's
// BindingNSM call, with the HNS name from the Import flowing through.
func CallBindService(ctx context.Context, c *hrpc.Client, b hrpc.Binding,
	service string, program, version uint32, name names.Name) (hrpc.Binding, error) {
	ret, err := c.Call(ctx, b, qclass.ProcBindService, marshal.StructV(
		marshal.Str(service), marshal.U32(program), marshal.U32(version),
		marshal.Str(name.Context), marshal.Str(name.Individual),
	))
	if err != nil {
		return hrpc.Binding{}, err
	}
	return qclass.ValueBinding(ret.Items[0])
}

// CallMailRoute invokes a MailRoute NSM bound at b.
func CallMailRoute(ctx context.Context, c *hrpc.Client, b hrpc.Binding, name names.Name) (mailHost, route string, err error) {
	ret, err := c.Call(ctx, b, qclass.ProcMailRoute, marshal.StructV(
		marshal.Str(name.Context), marshal.Str(name.Individual),
	))
	if err != nil {
		return "", "", err
	}
	if mailHost, err = ret.Items[0].AsString(); err != nil {
		return "", "", err
	}
	if route, err = ret.Items[1].AsString(); err != nil {
		return "", "", err
	}
	return mailHost, route, nil
}
