// Package core implements the HCS Name Service (HNS) proper — the paper's
// primary contribution.
//
// The HNS is a *direct access* global name service: all data about
// individually nameable entities stays in the underlying name services
// (BIND, Clearinghouse, ...), and the HNS maintains only meta-naming
// information — which name service a context maps to, which NSM handles a
// (name service, query class) pair, and where that NSM lives. The
// meta-information is itself stored in a modified BIND supporting dynamic
// updates and records of unspecified type; the HNS is "a collection of
// library routines that access this version of BIND".
//
// The primary function is FindNSM, implemented as the paper's sequence of
// mappings:
//
//  1. Context → Name Service Name                  (meta-BIND lookup)
//  2. (Name Service Name, Query Class) → NSM Name  (meta-BIND lookup)
//  3. NSM Name → NSM record                        (meta-BIND lookup)
//     4-5. the NSM record names the NSM's host; translating it to an
//     address is itself an HNS operation, re-running mappings 1-2 for
//     the host's context                         (two meta-BIND lookups)
//  6. the HostAddress NSM interrogates the real underlying name service.
//
// Further recursion is avoided by linking HostAddress NSM instances
// directly with the HNS (LinkHostResolver), so their own addresses never
// need to be found. A cache-cold FindNSM therefore performs exactly six
// remote lookups; a warm one performs none.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/bind"
	"hns/internal/cache"
	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/push"
	"hns/internal/qclass"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// HostResolver is the face of a linked-in HostAddress NSM: it translates a
// host's individual name into a transport address using its underlying
// name service, and is expected to cache.
type HostResolver interface {
	// ResolveHost maps the individual name of a host to its transport
	// address.
	ResolveHost(ctx context.Context, individual string) (string, error)
	// Left reports how much longer it keeps the address it resolved for
	// individual: nothing when it holds none, or only a stale one.
	Left(individual string) time.Duration
}

// Finder is the client-side face of the HNS, satisfied by both the local
// library (*HNS) and the remote service (*RemoteHNS) — the choice between
// them is the "colocation arrangement" of the paper's Table 3.1.
type Finder interface {
	// FindNSM maps an HNS name's context plus a query class to an HRPC
	// binding for the NSM that can answer queries of that class. The
	// binding holds only what the caller dials: its Host is empty.
	FindNSM(ctx context.Context, name names.Name, queryClass string) (hrpc.Binding, error)
}

// ContextFinder is the face the HNS program serves: FindNSM keyed by the
// context alone, since only the NSM reads the individual name.
type ContextFinder interface {
	FindContextNSM(ctx context.Context, hnsContext, queryClass string) (hrpc.Binding, error)
}

// Errors reported by HNS operations.
var (
	ErrNoSuchContext = errors.New("hns: context not registered")
	ErrNoSuchNSM     = errors.New("hns: no NSM registered for query class on name service")
	ErrBadMetaRecord = errors.New("hns: malformed meta-naming record")
	ErrDepthExceeded = errors.New("hns: host resolution recursion too deep")
)

// Config configures a local HNS instance.
type Config struct {
	// MetaZone is the BIND zone holding the meta-information
	// (default "hns").
	MetaZone string
	// CacheMode selects the meta-cache entry form (Table 3.2):
	// demarshalled (default) or marshalled.
	CacheMode bind.CacheMode
	// Clock drives cache TTL expiry; default real time.
	Clock simtime.Clock
	// ServeStale, when positive, enables serve-stale degraded mode on the
	// meta-cache: if every meta-BIND replica is unreachable, FindNSM's
	// mapping lookups may answer from expired entries up to ServeStale
	// past expiry (counted in cache_stale_served_total and
	// Stats.Cache.StaleServed). Zero keeps strict TTL semantics.
	ServeStale time.Duration
	// ChainMeta, when set, lets a meta-cache miss on mapping 1, 2 or 4 ask
	// the meta-BIND to follow the context → NSM name → NSM record chain in
	// the same exchange (bind.ChainLookuper), so the mappings after it hit:
	// a cold FindNSM makes one meta exchange, not three. It takes effect
	// only over a MetaClient that can chain (*bind.HRPCClient does). Off
	// by default — the paper's FindNSM makes one
	// lookup per mapping, and the tables are computed that way.
	ChainMeta bool
	// RPC, when set, lets the HNS fall back to *remote* HostAddress NSMs
	// for name services with no linked resolver. Without it, such
	// lookups fail — the prototype always linked its HostAddress NSMs.
	RPC *hrpc.Client
	// Metrics receives this instance's counters and per-mapping-step
	// latency histograms (core_findnsm_* and the meta-cache's cache_*
	// series). Nil means the process-wide metrics.Default();
	// metrics.Discard disables instrumentation entirely.
	Metrics *metrics.Registry
}

// MetaClient is the client-side face of the meta-information repository:
// the BIND HRPC interface's lookup, dynamic update (one transaction) and
// zone transfer. *bind.HRPCClient (one modified BIND, or an ordered set of
// replicas of it via hrpc.Client.SetReplicas) satisfies it.
type MetaClient interface {
	bind.Lookuper
	Apply(ctx context.Context, zone string, ops []bind.Op) (uint32, error)
	Transfer(ctx context.Context, zone string) (uint32, []bind.RR, error)
}

// HNS is a local instance of the name service library.
type HNS struct {
	metaZone string
	meta     MetaClient
	resolver *bind.Resolver
	rpc      *hrpc.Client
	// The follow lists of Config.ChainMeta, nil without it: what mapping 2
	// chains to (the NSM record) and what mapping 4 does (the host name
	// service's HostAddress record; mapping 5 always follows, the host
	// NSM's own record is wanted only when none is linked). Mapping 1's
	// depends on the query class: see chainFrom.
	chainNSM, chainHost []bind.FollowStep

	mu            sync.RWMutex
	hostResolvers map[string]HostResolver
	// metaSub, when non-nil, is the live push subscription feeding
	// cache invalidations (see SubscribeMeta in subscribe.go).
	metaSub *bind.Subscriber
	// watchers are the connections its relays go to, and hostCtxs the
	// host contexts a watched walk read: a change to one is relayed as a
	// zone-level flush (see subscribe.go).
	watchers *push.Table
	hostCtxs sync.Map

	findCalls atomic.Int64
	instr     bool
	obs       hnsObs
}

// hnsObs holds the pre-created instrument handles FindNSM records into.
// Handles are resolved once in New so the warm path never touches the
// registry's name table.
type hnsObs struct {
	warm, cold     *metrics.Counter   // core_findnsm_total{state=...}
	errors         *metrics.Counter   // core_findnsm_errors_total
	warmMS, coldMS *metrics.Histogram // core_findnsm_ms{state=...}
	steps          [6]*metrics.Histogram
}

// New creates an HNS over the given meta-information client — usually a
// *bind.HRPCClient for the modified BIND and its secondaries.
func New(meta MetaClient, cfg Config) *HNS {
	zone := cfg.MetaZone
	if zone == "" {
		zone = "hns"
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.Default()
	}
	h := &HNS{
		metaZone: zone,
		meta:     meta,
		rpc:      cfg.RPC,
		resolver: bind.NewResolver(meta, bind.ResolverConfig{
			Mode:      cfg.CacheMode,
			Clock:     cfg.Clock,
			Metrics:   reg,
			CacheName: "meta",
			StaleFor:  cfg.ServeStale,
		}),
		hostResolvers: make(map[string]HostResolver),
		watchers:      push.NewTable(reg),
		instr:         reg.Enabled(),
	}
	h.obs = hnsObs{
		warm:   reg.Counter(metrics.Labels("core_findnsm_total", "state", "warm")),
		cold:   reg.Counter(metrics.Labels("core_findnsm_total", "state", "cold")),
		errors: reg.Counter("core_findnsm_errors_total"),
		warmMS: reg.Histogram(metrics.Labels("core_findnsm_ms", "state", "warm")),
		coldMS: reg.Histogram(metrics.Labels("core_findnsm_ms", "state", "cold")),
	}
	for i := range h.obs.steps {
		h.obs.steps[i] = reg.Histogram(metrics.Labels("core_findnsm_step_ms",
			"step", fmt.Sprintf("mapping%d", i+1)))
	}
	if cfg.ChainMeta {
		h.chainNSM = []bind.FollowStep{h.followNSM()}
		h.chainHost = []bind.FollowStep{h.followQC(qclass.HostAddress)}
	}
	return h
}

// LinkHostResolver links a HostAddress NSM instance directly with the HNS
// for the given name service, breaking the FindNSM recursion for hosts
// named in that service.
func (h *HNS) LinkHostResolver(nameService string, r HostResolver) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.hostResolvers[strings.ToLower(nameService)] = r
}

// linkedResolver returns the linked HostAddress NSM for a name service.
func (h *HNS) linkedResolver(nameService string) HostResolver {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.hostResolvers[nameService]
}

// Meta record owner names. Contexts, name services, query-class mappings
// and NSM records live under distinct sub-trees of the meta zone.
func (h *HNS) ctxName(context string) string { return context + ".ctx." + h.metaZone }
func (h *HNS) qcName(qc, ns string) string   { return qc + "." + ns + ".qc." + h.metaZone }
func (h *HNS) nsmName(nsm string) string     { return nsm + ".nsm." + h.metaZone }

// The same two names as steps the meta-BIND can follow: a context record's
// ns= value names the (query class, name service) record — qcName — whose
// nsm= value names the NSM record — nsmName.
func (h *HNS) followQC(qc string) bind.FollowStep {
	return bind.FollowStep{Key: "ns", Prefix: qc + ".", Suffix: ".qc." + h.metaZone}
}
func (h *HNS) followNSM() bind.FollowStep {
	return bind.FollowStep{Key: "nsm", Suffix: ".nsm." + h.metaZone}
}

// chainFrom is mapping 1's follow list: mappings 2 and 3 for queryClass.
func (h *HNS) chainFrom(queryClass string) []bind.FollowStep {
	if h.chainNSM == nil {
		return nil
	}
	return []bind.FollowStep{h.followQC(queryClass), h.chainNSM[0]}
}

// stepObs tracks per-step duration and cache state for one FindNSM
// call, feeding both the per-step histograms and the structured trace
// events. Durations are on the call's one clock (simtime.Stopwatch):
// meter time under the harness, wall time in a daemon. A nil *stepObs
// (uninstrumented, untraced call) makes every lap free.
type stepObs struct {
	sw    simtime.Stopwatch
	fn    EventFunc
	cc    metrics.CallCounter
	prevD time.Duration // stopwatch reading at the previous lap
	prevM int64
}

// lap reports the time and cache state since the previous lap.
func (s *stepObs) lap() (time.Duration, string) {
	if s == nil {
		return 0, CacheWarm
	}
	now := s.sw.Elapsed()
	d := now - s.prevD
	s.prevD = now
	state := CacheWarm
	if m := s.cc.Misses(); m > s.prevM {
		state = CacheCold
		s.prevM = m
	}
	return d, state
}

// FindNSM implements Finder. It is the paper's primary HNS call.
func (h *HNS) FindNSM(ctx context.Context, name names.Name, queryClass string) (hrpc.Binding, error) {
	if err := name.Validate(); err != nil {
		h.findCalls.Add(1)
		simtime.Charge(ctx, simtime.FindNSMAssembly)
		h.obs.errors.Inc()
		return hrpc.Binding{}, err
	}
	return h.FindContextNSM(ctx, name.Context, queryClass)
}

// FindContextNSM implements ContextFinder; mapping 1 checks the context.
func (h *HNS) FindContextNSM(ctx context.Context, hnsContext, queryClass string) (hrpc.Binding, error) {
	h.findCalls.Add(1)
	simtime.Charge(ctx, simtime.FindNSMAssembly)
	queryClass = strings.ToLower(queryClass)

	var so *stepObs
	if tr := tracer(ctx); h.instr || tr != nil {
		so = &stepObs{sw: simtime.Start(ctx), fn: tr}
		ctx = metrics.InstallCallCounter(ctx, &so.cc)
	}
	b, err := h.findNSM(ctx, hnsContext, queryClass, 0, so)
	if err != nil {
		h.obs.errors.Inc()
		return b, err
	}
	if h.instr {
		// The final "resolved" lap left prevD at the call's end time,
		// so the total needs no further clock read.
		total := so.prevD
		if so.cc.Misses() == 0 {
			h.obs.warm.Inc()
			h.obs.warmMS.Observe(total)
		} else {
			h.obs.cold.Inc()
			h.obs.coldMS.Observe(total)
		}
	}
	return b, nil
}

func (h *HNS) findNSM(ctx context.Context, context, queryClass string, depth int, so *stepObs) (hrpc.Binding, error) {
	if depth > 2 {
		return hrpc.Binding{}, ErrDepthExceeded
	}
	// Mapping 1: Context → Name Service Name.
	ns, err := h.lookupContext(ctx, context, h.chainFrom(queryClass))
	if err != nil {
		return hrpc.Binding{}, err
	}
	d, state := so.lap()
	h.obs.steps[0].Observe(d)
	so.emit("mapping 1", d, state, "context %q -> name service %q", context, ns)
	// Mapping 2: (Name Service Name, Query Class) → NSM Name.
	nsm, err := h.lookupNSMName(ctx, ns, queryClass, h.chainNSM)
	if err != nil {
		return hrpc.Binding{}, err
	}
	d, state = so.lap()
	h.obs.steps[1].Observe(d)
	so.emit("mapping 2", d, state, "(%q, %q) -> NSM %q", ns, queryClass, nsm)
	// Mapping 3: NSM Name → NSM record (host, port, program, suite).
	rec, err := h.lookupNSMRecord(ctx, nsm)
	if err != nil {
		return hrpc.Binding{}, err
	}
	d, state = so.lap()
	h.obs.steps[2].Observe(d)
	so.emit("mapping 3", d, state, "NSM %q -> host %s port %s suite %s,%s,%s",
		nsm, rec.Host, rec.Port, rec.Suite.Transport, rec.Suite.DataRep, rec.Suite.Control)
	// Mappings 4-6: translate the NSM's host name to an address.
	hostAddr, err := h.resolveHost(ctx, rec.HostContext, rec.Host, depth, so)
	if err != nil {
		return hrpc.Binding{}, fmt.Errorf("hns: resolving NSM host %s: %w", rec.Host, err)
	}
	d, state = so.lap()
	so.emit("resolved", d, state, "NSM host %q -> address %q", rec.Host, hostAddr)
	prog, err := qclass.Program(queryClass)
	if err != nil {
		return hrpc.Binding{}, err
	}
	return hrpc.Binding{
		Addr:      hostAddr + ":" + rec.Port,
		Transport: rec.Suite.Transport,
		DataRep:   rec.Suite.DataRep,
		Control:   rec.Suite.Control,
		Program:   prog,
		Version:   qclass.NSMVersion,
	}, nil
}

// lookup reads one meta answer through the meta-cache; a watched walk
// (findKeep) keeps its answer no longer than the cache keeps this one.
func (h *HNS) lookup(ctx context.Context, name string, follow []bind.FollowStep) (bind.Answer, error) {
	ans, err := h.resolver.LookupChain(ctx, name, bind.TypeHNSMeta, follow)
	if err == nil {
		keepFor(ctx, h.resolver.Left(ans))
	}
	return ans, err
}

// keepKey carries a watched walk's keep: the least lifetime it read.
type keepKey struct{}

// keepFor lowers the walk's keep to d, reporting whether ctx carries one.
func keepFor(ctx context.Context, d time.Duration) bool {
	k, ok := ctx.Value(keepKey{}).(*time.Duration)
	if ok {
		*k = min(*k, d)
	}
	return ok
}

// findKeep is FindContextNSM for a watched caller: the answer may be kept
// as long as every meta answer the walk read and the linked HostAddress
// NSM's address stay cached, and not at all while the meta subscription
// is down, since nothing would then recall it.
func (h *HNS) findKeep(ctx context.Context, hnsContext, queryClass string) (hrpc.Binding, time.Duration, error) {
	keep := time.Duration(0)
	if sub := h.MetaSubscription(); sub != nil && sub.Active() {
		keep = time.Duration(math.MaxInt64)
		ctx = context.WithValue(ctx, keepKey{}, &keep)
	}
	b, err := h.FindContextNSM(ctx, hnsContext, queryClass)
	return b, keep, err
}

// promise reports whether the HNS can relay its meta-cache's
// invalidations: it has a subscription that was not refused.
func (h *HNS) promise(context.Context) bool {
	sub := h.MetaSubscription()
	return sub != nil && !sub.Degraded()
}

func (h *HNS) relays() *push.Table { return h.watchers }

// lookupContext performs mapping 1.
func (h *HNS) lookupContext(ctx context.Context, context string, follow []bind.FollowStep) (string, error) {
	context, err := names.CanonicalContext(context)
	if err != nil {
		return "", err
	}
	ans, err := h.lookup(ctx, h.ctxName(context), follow)
	if err != nil {
		if transport.CodeOf(err).NotFound() {
			return "", fmt.Errorf("%w: %q", ErrNoSuchContext, context)
		}
		return "", err
	}
	ns, ok := ans.Value("ns")
	if !ok {
		return "", fmt.Errorf("%w: context %q record lacks ns=", ErrBadMetaRecord, context)
	}
	return ns, nil
}

// lookupNSMName performs mapping 2.
func (h *HNS) lookupNSMName(ctx context.Context, ns, queryClass string, follow []bind.FollowStep) (string, error) {
	ans, err := h.lookup(ctx, h.qcName(queryClass, ns), follow)
	if err != nil {
		if transport.CodeOf(err).NotFound() {
			return "", fmt.Errorf("%w: %s on %s", ErrNoSuchNSM, queryClass, ns)
		}
		return "", err
	}
	nsm, ok := ans.Value("nsm")
	if !ok {
		return "", fmt.Errorf("%w: qc record for %s/%s lacks nsm=", ErrBadMetaRecord, ns, queryClass)
	}
	return nsm, nil
}

// nsmRecord is the decoded form of an NSM's meta records.
type nsmRecord struct {
	Host        string
	HostContext string
	Port        string
	Suite       hrpc.Suite
}

// lookupNSMRecord performs mapping 3.
func (h *HNS) lookupNSMRecord(ctx context.Context, nsm string) (nsmRecord, error) {
	ans, err := h.lookup(ctx, h.nsmName(nsm), nil)
	if err != nil {
		if transport.CodeOf(err).NotFound() {
			return nsmRecord{}, fmt.Errorf("%w: NSM %q has no record", ErrNoSuchNSM, nsm)
		}
		return nsmRecord{}, err
	}
	var rec nsmRecord
	var ok bool
	if rec.Host, ok = ans.Value("host"); !ok {
		return nsmRecord{}, fmt.Errorf("%w: NSM %q lacks host=", ErrBadMetaRecord, nsm)
	}
	if rec.HostContext, ok = ans.Value("hostctx"); !ok {
		return nsmRecord{}, fmt.Errorf("%w: NSM %q lacks hostctx=", ErrBadMetaRecord, nsm)
	}
	if rec.Port, ok = ans.Value("port"); !ok {
		return nsmRecord{}, fmt.Errorf("%w: NSM %q lacks port=", ErrBadMetaRecord, nsm)
	}
	suite, ok := ans.Value("suite")
	if !ok {
		return nsmRecord{}, fmt.Errorf("%w: NSM %q lacks suite=", ErrBadMetaRecord, nsm)
	}
	parts := strings.Split(suite, ",")
	if len(parts) != 3 {
		return nsmRecord{}, fmt.Errorf("%w: NSM %q suite %q", ErrBadMetaRecord, nsm, suite)
	}
	rec.Suite = hrpc.Suite{Transport: parts[0], DataRep: parts[1], Control: parts[2]}
	return rec, nil
}

// resolveHost performs mappings 4-6: an HNS HostAddress operation for the
// NSM's own host, short-circuited through linked resolvers.
func (h *HNS) resolveHost(ctx context.Context, hostContext, host string, depth int, so *stepObs) (string, error) {
	if keepFor(ctx, math.MaxInt64) { // before the read, so a change to it is relayed as a flush
		h.hostCtxs.LoadOrStore(strings.ToLower(hostContext), struct{}{})
	}
	// Mapping 4: the host's context → its name service.
	hostNS, err := h.lookupContext(ctx, hostContext, h.chainHost)
	if err != nil {
		return "", err
	}
	d, state := so.lap()
	h.obs.steps[3].Observe(d)
	so.emit("mapping 4", d, state, "host context %q -> name service %q", hostContext, hostNS)
	// Mapping 5: (host NS, HostAddress) → NSM name. Performed even when a
	// linked instance will serve the query — the HNS must confirm the
	// query class is supported before dispatching.
	hostNSM, err := h.lookupNSMName(ctx, hostNS, qclass.HostAddress, nil)
	if err != nil {
		return "", err
	}
	d, state = so.lap()
	h.obs.steps[4].Observe(d)
	so.emit("mapping 5", d, state, "(%q, %q) -> NSM %q", hostNS, qclass.HostAddress, hostNSM)
	// Mapping 6: the HostAddress NSM interrogates its name service.
	if r := h.linkedResolver(hostNS); r != nil {
		addr, err := r.ResolveHost(ctx, host)
		d, state = so.lap()
		h.obs.steps[5].Observe(d)
		if err != nil {
			return "", err
		}
		keepFor(ctx, r.Left(host))
		so.emit("mapping 6", d, state, "linked HostAddress NSM for %q resolves %q", hostNS, host)
		return addr, nil
	}
	// No linked instance: fall back to calling the remote HostAddress
	// NSM, which requires finding *it* first (bounded recursion).
	if h.rpc == nil {
		return "", fmt.Errorf("hns: no linked HostAddress NSM for name service %q", hostNS)
	}
	b, err := h.findNSM(ctx, hostContext, qclass.HostAddress, depth+1, so)
	if err != nil {
		return "", err
	}
	keepFor(ctx, 0) // how long the remote NSM keeps its answer is not known
	ret, err := h.rpc.Call(ctx, b, qclass.ProcResolveHost, resolveHostArgs(hostContext, host))
	d, _ = so.lap()
	h.obs.steps[5].Observe(d)
	if err != nil {
		return "", err
	}
	return ret.Items[0].AsString()
}

// Stats reports the HNS's operational counters.
type Stats struct {
	// FindNSMCalls counts FindNSM invocations.
	FindNSMCalls int64
	// Cache carries the meta-cache counters (the paper's p and p+q).
	// StaleServed stays zero unless Config.ServeStale is set.
	Cache cache.Stats
}

// Stats returns a snapshot.
func (h *HNS) Stats() Stats {
	return Stats{FindNSMCalls: h.findCalls.Load(), Cache: h.resolver.Stats()}
}

// FlushCache empties the meta-cache (between benchmark phases). A FindNSM
// walk in flight keeps the records it read but caches none of them.
func (h *HNS) FlushCache() { h.resolver.Purge() }
