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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hns/internal/bind"
	"hns/internal/cache"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/names"
	"hns/internal/qclass"
	"hns/internal/simtime"
)

// HostResolver is the face of a linked-in HostAddress NSM: it translates a
// host's individual name into a transport address using its underlying
// name service, and is expected to cache.
type HostResolver interface {
	// ResolveHost maps the individual name of a host to its transport
	// address.
	ResolveHost(ctx context.Context, individual string) (string, error)
}

// Finder is the client-side face of the HNS, satisfied by both the local
// library (*HNS) and the remote service (*RemoteHNS) — the choice between
// them is the "colocation arrangement" of the paper's Table 3.1.
type Finder interface {
	// FindNSM maps an HNS name's context plus a query class to an HRPC
	// binding for the NSM that can answer queries of that class.
	FindNSM(ctx context.Context, name names.Name, queryClass string) (hrpc.Binding, error)
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
	// MaxCacheEntries bounds the meta-cache; 0 = unbounded.
	MaxCacheEntries int
	// NegativeCacheTTL, when positive, remembers authoritative "no such
	// meta record" answers for that long, so lookups of unregistered
	// contexts stop hammering the meta-BIND. Zero disables negative
	// caching (the paper's prototype had none).
	NegativeCacheTTL time.Duration
	// ServeStale, when positive, enables serve-stale degraded mode on the
	// meta-cache: if every meta-BIND replica is unreachable, FindNSM's
	// mapping lookups may answer from expired entries up to ServeStale
	// past expiry (counted in cache_stale_served_total and
	// Stats.Cache.StaleServed). Zero keeps strict TTL semantics.
	ServeStale time.Duration
	// BindingCacheTTL, when positive, memoizes fully resolved FindNSM
	// results: a repeat (context, query class) is answered from the
	// stored binding without re-walking the six mappings — priced as one
	// cache probe (CacheHit(0)) on top of the fixed assembly cost. This
	// is an additional layer above the meta-cache, so it is off by
	// default and the paper's tables are computed without it; the
	// zero-allocation warm path the bench-alloc gate pins uses it.
	BindingCacheTTL time.Duration
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
// the BIND HRPC interface's lookup, dynamic update (one transaction),
// zone transfer, and serial probe. *bind.HRPCClient (one modified BIND,
// or an ordered set of replicas of it via hrpc.Client.SetReplicas)
// satisfies it.
type MetaClient interface {
	bind.Lookuper
	Apply(ctx context.Context, zone string, ops []bind.Op) (uint32, error)
	Transfer(ctx context.Context, zone string) (uint32, []bind.RR, error)
	Serial(ctx context.Context, zone string) (uint32, error)
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

	// bindings, when non-nil, is the resolved-binding cache
	// (Config.BindingCacheTTL): (context, query class) → hrpc.Binding.
	bindings   *cache.TTL[hrpc.Binding]
	bindingTTL time.Duration
	// bindMu orders a finished walk's Put against purgeBindings; bindGen
	// counts purges (written under bindMu), so a walk that began before
	// one is not memoized.
	bindMu  sync.Mutex
	bindGen atomic.Uint64

	mu            sync.RWMutex
	hostResolvers map[string]HostResolver
	// metaSub, when non-nil, is the live push subscription feeding
	// cache invalidations (see SubscribeMeta in subscribe.go).
	metaSub *bind.Subscriber

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
	// core_binding_cache_total{result=...}; registered only when the
	// binding cache is enabled (nil handles are no-ops otherwise).
	bindHits, bindMisses *metrics.Counter
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
			Mode: cfg.CacheMode,
			// Meta data arrives via the generated stubs, so marshalled-
			// mode hits pay the generated demarshal rate.
			Style:       marshal.StyleGenerated,
			Clock:       cfg.Clock,
			MaxEntries:  cfg.MaxCacheEntries,
			NegativeTTL: cfg.NegativeCacheTTL,
			Metrics:     reg,
			CacheName:   "meta",
			StaleFor:    cfg.ServeStale,
		}),
		hostResolvers: make(map[string]HostResolver),
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
	if cfg.BindingCacheTTL > 0 {
		h.bindings = cache.New[hrpc.Binding](cfg.Clock, cfg.MaxCacheEntries)
		h.bindingTTL = cfg.BindingCacheTTL
		h.obs.bindHits = reg.Counter(metrics.Labels("core_binding_cache_total", "result", "hit"))
		h.obs.bindMisses = reg.Counter(metrics.Labels("core_binding_cache_total", "result", "miss"))
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

// metaLookup fetches the meta records at name through the caching
// resolver; the six FindNSM mappings all come through here. follow lists
// the mappings the caller performs next (nil unless Config.ChainMeta): a
// miss fetches their records in the same exchange.
func (h *HNS) metaLookup(ctx context.Context, name string, follow []bind.FollowStep) ([]bind.RR, error) {
	return h.resolver.LookupChain(ctx, name, bind.TypeHNSMeta, follow)
}

// chainFrom is mapping 1's follow list: mappings 2 and 3 for queryClass.
func (h *HNS) chainFrom(queryClass string) []bind.FollowStep {
	if h.chainNSM == nil {
		return nil
	}
	return []bind.FollowStep{h.followQC(queryClass), h.chainNSM[0]}
}

// kv parses the "key=value" payload convention of meta records.
func kv(rr bind.RR) (string, string, error) {
	s := string(rr.Data)
	i := strings.IndexByte(s, '=')
	if i <= 0 {
		return "", "", fmt.Errorf("%w: %q on %s", ErrBadMetaRecord, s, rr.Name)
	}
	return s[:i], s[i+1:], nil
}

// findValue extracts the value for key from a meta record set.
func findValue(rrs []bind.RR, key string) (string, bool) {
	for _, rr := range rrs {
		k, v, err := kv(rr)
		if err == nil && k == key {
			return v, true
		}
	}
	return "", false
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
	h.findCalls.Add(1)
	simtime.Charge(ctx, simtime.FindNSMAssembly)
	if err := name.Validate(); err != nil {
		h.obs.errors.Inc()
		return hrpc.Binding{}, err
	}
	queryClass = strings.ToLower(queryClass)

	// Resolved-binding cache: a repeat (context, query class) skips the
	// entire mapping walk. The key concatenation is the warm path's one
	// allocation; the hit is priced as a single cache probe.
	var bkey string
	var bgen uint64
	if h.bindings != nil {
		cctx, cerr := names.CanonicalContext(name.Context)
		if cerr == nil {
			bkey = cctx + "\x00" + queryClass
			if b, ok := h.bindings.Get(bkey); ok {
				simtime.Charge(ctx, simtime.CacheHit(0))
				h.obs.bindHits.Inc()
				return b, nil
			}
			h.obs.bindMisses.Inc()
			bgen = h.bindGen.Load()
		}
	}

	var so *stepObs
	if tr := tracer(ctx); h.instr || tr != nil {
		so = &stepObs{sw: simtime.Start(ctx), fn: tr}
		ctx = metrics.InstallCallCounter(ctx, &so.cc)
	}
	b, err := h.findNSM(ctx, name.Context, queryClass, 0, so)
	if err != nil {
		h.obs.errors.Inc()
		return b, err
	}
	if bkey != "" {
		h.bindMu.Lock()
		if h.bindGen.Load() == bgen {
			h.bindings.Put(bkey, b, h.bindingTTL)
		}
		h.bindMu.Unlock()
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
		Host:      rec.Host,
		Addr:      hostAddr + ":" + rec.Port,
		Transport: rec.Suite.Transport,
		DataRep:   rec.Suite.DataRep,
		Control:   rec.Suite.Control,
		Program:   prog,
		Version:   qclass.NSMVersion,
	}, nil
}

// lookupContext performs mapping 1.
func (h *HNS) lookupContext(ctx context.Context, context string, follow []bind.FollowStep) (string, error) {
	context, err := names.CanonicalContext(context)
	if err != nil {
		return "", err
	}
	rrs, err := h.metaLookup(ctx, h.ctxName(context), follow)
	if err != nil {
		var nf *bind.NotFoundError
		if errors.As(err, &nf) {
			return "", fmt.Errorf("%w: %q", ErrNoSuchContext, context)
		}
		return "", err
	}
	ns, ok := findValue(rrs, "ns")
	if !ok {
		return "", fmt.Errorf("%w: context %q record lacks ns=", ErrBadMetaRecord, context)
	}
	return ns, nil
}

// lookupNSMName performs mapping 2.
func (h *HNS) lookupNSMName(ctx context.Context, ns, queryClass string, follow []bind.FollowStep) (string, error) {
	rrs, err := h.metaLookup(ctx, h.qcName(queryClass, ns), follow)
	if err != nil {
		var nf *bind.NotFoundError
		if errors.As(err, &nf) {
			return "", fmt.Errorf("%w: %s on %s", ErrNoSuchNSM, queryClass, ns)
		}
		return "", err
	}
	nsm, ok := findValue(rrs, "nsm")
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
	rrs, err := h.metaLookup(ctx, h.nsmName(nsm), nil)
	if err != nil {
		var nf *bind.NotFoundError
		if errors.As(err, &nf) {
			return nsmRecord{}, fmt.Errorf("%w: NSM %q has no record", ErrNoSuchNSM, nsm)
		}
		return nsmRecord{}, err
	}
	var rec nsmRecord
	var ok bool
	if rec.Host, ok = findValue(rrs, "host"); !ok {
		return nsmRecord{}, fmt.Errorf("%w: NSM %q lacks host=", ErrBadMetaRecord, nsm)
	}
	if rec.HostContext, ok = findValue(rrs, "hostctx"); !ok {
		return nsmRecord{}, fmt.Errorf("%w: NSM %q lacks hostctx=", ErrBadMetaRecord, nsm)
	}
	if rec.Port, ok = findValue(rrs, "port"); !ok {
		return nsmRecord{}, fmt.Errorf("%w: NSM %q lacks port=", ErrBadMetaRecord, nsm)
	}
	suite, ok := findValue(rrs, "suite")
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
	Cache CacheStats
}

// CacheStats mirrors cache.Stats without exporting the cache package.
type CacheStats struct {
	Hits, Misses, Expired, Preloads int64
	HitRate                         float64
	// NegativeHits counts lookups answered from the negative cache
	// (zero unless Config.NegativeCacheTTL is set).
	NegativeHits int64
	// LockWaits counts contended meta-cache shard-lock acquisitions.
	LockWaits int64
	// StaleServed counts degraded-mode answers from expired entries
	// (zero unless Config.ServeStale is set).
	StaleServed int64
}

// Stats returns a snapshot.
func (h *HNS) Stats() Stats {
	cs := h.resolver.Stats()
	return Stats{
		FindNSMCalls: h.findCalls.Load(),
		Cache: CacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Expired: cs.Expired,
			Preloads: cs.Preloads, HitRate: cs.HitRate(),
			NegativeHits: h.resolver.NegativeStats().Hits,
			LockWaits:    h.resolver.LockWaits(),
			StaleServed:  cs.StaleServed,
		},
	}
}

// FlushCache empties the meta-cache — and the resolved-binding cache, when
// enabled (between benchmark phases).
func (h *HNS) FlushCache() {
	h.resolver.Purge()
	h.purgeBindings()
}

// purgeBindings empties the resolved-binding cache (a no-op when it is
// off). A FindNSM walk in progress may have read meta records that have
// since changed, so bumping bindGen keeps its result out of the cache.
func (h *HNS) purgeBindings() {
	if h.bindings == nil {
		return
	}
	h.bindMu.Lock()
	h.bindGen.Add(1)
	h.bindings.Purge()
	h.bindMu.Unlock()
}
