package bind

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hns/internal/cache"
	"hns/internal/health"
	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
	"time"
)

// Lookuper is the client-side face shared by the two BIND interfaces and
// the caching resolver: resolve (name, type) to records.
type Lookuper interface {
	Lookup(ctx context.Context, name string, t RRType) ([]RR, error)
}

// NotFoundError reports an authoritative negative answer.
type NotFoundError struct {
	Name  string
	Type  RRType
	RCode RCode
}

// Error implements error.
func (e *NotFoundError) Error() string {
	return fmt.Sprintf("bind: %s %s: %s", e.Name, e.Type, e.RCode)
}

// ---- Standard-interface client (hand-coded marshalling).

// StdClient speaks the standard wire protocol to a server, or an ordered
// replica set of servers: the first address is preferred, and per-endpoint
// circuit breakers fail traffic over to the next live replica when it
// stops answering. Its marshalling is priced at the hand-coded rates: this
// is the "standard BIND library" path (27 ms lookups in the paper).
type StdClient struct {
	net           *transport.Network
	transportName string
	addrs         []string // ordered replica set; addrs[0] preferred
	obs           clientObs
	health        *health.Set

	mu       sync.Mutex
	conn     transport.Conn
	connAddr string
	id       atomic.Uint32
}

// clientObs holds the BIND client-side counters, shared by both client
// flavors and labeled by interface ("std" or "hrpc").
type clientObs struct {
	ok, notFound, errs *metrics.Counter // bind_client_lookups_total{iface,result}
	updates            *metrics.Counter // bind_client_updates_total{iface}
	transfers          *metrics.Counter // bind_client_transfers_total{iface}
}

func newClientObs(iface string) clientObs {
	r := metrics.Default()
	lookups := func(result string) *metrics.Counter {
		return r.Counter(metrics.Labels("bind_client_lookups_total",
			"iface", iface, "result", result))
	}
	return clientObs{
		ok:       lookups("ok"),
		notFound: lookups("not_found"),
		errs:     lookups("error"),
		updates:  r.Counter(metrics.Labels("bind_client_updates_total", "iface", iface)),
		transfers: r.Counter(metrics.Labels("bind_client_transfers_total",
			"iface", iface)),
	}
}

// count classifies a finished lookup into the right counter.
func (o clientObs) count(err error) {
	switch {
	case err == nil:
		o.ok.Inc()
	case isNotFound(err):
		o.notFound.Inc()
	default:
		o.errs.Inc()
	}
}

func isNotFound(err error) bool {
	var nf *NotFoundError
	return errors.As(err, &nf)
}

// NewStdClient creates a standard-interface client for the server at addr
// over the named transport ("udp" for the classic remote configuration).
// Additional replica addresses, tried in order when earlier endpoints are
// unhealthy, may follow.
func NewStdClient(net *transport.Network, transportName, addr string, replicas ...string) *StdClient {
	return &StdClient{
		net:           net,
		transportName: transportName,
		addrs:         append([]string{addr}, replicas...),
		obs:           newClientObs("std"),
		health:        health.NewSet(health.Config{Service: "bind-std"}),
	}
}

// Lookup implements Lookuper.
func (c *StdClient) Lookup(ctx context.Context, name string, t RRType) (_ []RR, err error) {
	defer func() { c.obs.count(err) }()
	q := &Message{ID: uint16(c.id.Add(1)), QName: name, QType: t}
	// Hand-coded request marshalling: base cost only (a question is a
	// zero-record message).
	simtime.Charge(ctx, simtime.HandMarshalBase)
	req, err := EncodeMessage(q)
	if err != nil {
		return nil, err
	}
	respBytes, err := c.call(ctx, req)
	if err != nil {
		return nil, err
	}
	resp, err := DecodeMessage(respBytes)
	if err != nil {
		return nil, err
	}
	// Hand-coded response demarshalling, priced per answer record.
	marshal.ChargeRecords(ctx, marshal.StyleHand, len(resp.Answers))
	if resp.ID != q.ID {
		return nil, fmt.Errorf("bind: response ID %d does not match query %d", resp.ID, q.ID)
	}
	if resp.RCode != RCodeOK {
		return nil, &NotFoundError{Name: name, Type: t, RCode: resp.RCode}
	}
	return resp.Answers, nil
}

// call performs one exchange against the first live replica, failing over
// down the replica list when an endpoint proves unreachable. The handle's
// mutex guards only connection checkout (dialing included); the round trip
// itself runs outside it, so one slow lookup no longer serializes every
// goroutine sharing the client.
func (c *StdClient) call(ctx context.Context, req []byte) ([]byte, error) {
	var lastErr error
	for range c.addrs {
		conn, addr, err := c.checkout(ctx)
		if err != nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, err
		}
		resp, err := conn.Call(ctx, req)
		if err == nil {
			c.health.Breaker(addr).Success()
			return resp, nil
		}
		// Drop the connection; the next call redials.
		c.drop(conn)
		var re *transport.RemoteError
		if errors.As(err, &re) {
			// A live server answering with an error: healthy endpoint,
			// nothing a replica would fix.
			c.health.Breaker(addr).Success()
			return nil, err
		}
		if ctx.Err() != nil {
			return nil, err
		}
		c.health.Breaker(addr).Failure()
		lastErr = err
	}
	return nil, lastErr
}

// checkout returns the shared connection, dialing the first replica whose
// breaker admits a call when no connection is cached. A cached connection
// to an endpoint whose breaker has since opened is discarded, so traffic
// follows health, not connection affinity.
func (c *StdClient) checkout(ctx context.Context) (transport.Conn, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		if ok, _ := c.health.Breaker(c.connAddr).Allow(); ok {
			return c.conn, c.connAddr, nil
		}
		_ = c.conn.Close()
		c.conn, c.connAddr = nil, ""
	}
	tr, err := c.net.Transport(c.transportName)
	if err != nil {
		return nil, "", err
	}
	var lastErr error
	for _, addr := range c.addrs {
		ok, _ := c.health.Breaker(addr).Allow()
		if !ok {
			continue
		}
		conn, err := tr.Dial(ctx, addr)
		if err != nil {
			c.health.Breaker(addr).Failure()
			lastErr = err
			continue
		}
		c.conn, c.connAddr = conn, addr
		return conn, addr, nil
	}
	if lastErr == nil {
		lastErr = health.ErrNoLiveEndpoint
	}
	return nil, "", lastErr
}

// drop closes conn and forgets it if it is still the cached connection
// (a concurrent caller may have already replaced it).
func (c *StdClient) drop(conn transport.Conn) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn, c.connAddr = nil, ""
	}
	c.mu.Unlock()
	_ = conn.Close()
}

// Close releases the client's connection.
func (c *StdClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		err := c.conn.Close()
		c.conn, c.connAddr = nil, ""
		return err
	}
	return nil
}

// ---- HRPC-interface client (records in the journal's codec).

// HRPCClient speaks the HRPC interface to one (modified) BIND server. Its
// marshalling is priced at the generated-stub rates — the expensive path
// Table 3.2 measured — and it is the interface carrying dynamic updates
// and zone transfers.
type HRPCClient struct {
	c   *hrpc.Client
	b   hrpc.Binding
	obs clientObs
}

// NewHRPCClient creates a client for the BIND HRPC interface bound at b.
func NewHRPCClient(client *hrpc.Client, b hrpc.Binding) *HRPCClient {
	return &HRPCClient{c: client, b: b, obs: newClientObs("hrpc")}
}

// Lookup implements Lookuper.
func (c *HRPCClient) Lookup(ctx context.Context, name string, t RRType) (_ []RR, err error) {
	defer func() { c.obs.count(err) }()
	// Generated request marshalling.
	simtime.Charge(ctx, simtime.GenMarshalRequest)
	ret, err := c.c.Call(ctx, c.b, procQuery, marshal.StructV(
		marshal.Str(name), marshal.U32(uint32(t)),
	))
	if err != nil {
		return nil, err
	}
	rcode, rrs, err := replySets(ret.Items[0], ret.Items[1])
	if err != nil {
		return nil, err
	}
	// Generated response demarshalling, per record (Table 3.2 pricing).
	marshal.ChargeRecords(ctx, marshal.StyleGenerated, len(rrs))
	if rcode != RCodeOK {
		return nil, &NotFoundError{Name: name, Type: t, RCode: rcode}
	}
	return rrs, nil
}

// replySets reads a reply's rcode and sets payload, whose shapes the
// procedure's Ret type has already checked.
func replySets(rcode, sets marshal.Value) (RCode, []RR, error) {
	rrs, err := decodeSets(sets.Bytes)
	return RCode(rcode.Num), rrs, err
}

// Update applies one dynamic update: Apply of a one-op transaction.
func (c *HRPCClient) Update(ctx context.Context, zone string, op uint32, rr RR) (uint32, error) {
	return c.Apply(ctx, zone, []Op{{op, rr}})
}

// Apply applies ops to zone as one transaction — one exchange, one serial,
// all of it or none — and returns the serial it left the zone at.
func (c *HRPCClient) Apply(ctx context.Context, zone string, ops []Op) (uint32, error) {
	// An op is an add or a remove and strings are u16-counted: refuse what
	// would not survive the trip rather than truncate it.
	for _, op := range ops {
		if op.Op > UpdateRemove || max(len(zone), len(op.RR.Name), len(op.RR.Data)) > math.MaxUint16 {
			return 0, fmt.Errorf("bind: update does not fit the wire (op %d; zone, name, data %d, %d, %d bytes)",
				op.Op, len(zone), len(op.RR.Name), len(op.RR.Data))
		}
	}
	simtime.Charge(ctx, simtime.GenMarshalRequest)
	marshal.ChargeRecords(ctx, marshal.StyleGenerated, len(ops)) // the RRs in the request
	ret, err := c.c.Call(ctx, c.b, procUpdate, marshal.StructV(
		marshal.BytesV(appendUpdate(nil, zone, ops)),
	))
	if err != nil {
		return 0, err
	}
	rcode, _ := ret.Items[0].AsU32()
	serial, _ := ret.Items[1].AsU32()
	if RCode(rcode) != RCodeOK {
		return serial, fmt.Errorf("bind: update refused: %s", RCode(rcode))
	}
	c.obs.updates.Inc()
	return serial, nil
}

// Transfer fetches the zone's full contents (the preloading mechanism).
// The per-record transfer cost is charged server-side.
func (c *HRPCClient) Transfer(ctx context.Context, zone string) (uint32, []RR, error) {
	simtime.Charge(ctx, simtime.GenMarshalRequest)
	ret, err := c.c.Call(ctx, c.b, procTransfer, marshal.StructV(marshal.Str(zone)))
	if err != nil {
		return 0, nil, err
	}
	serial, _ := ret.Items[1].AsU32()
	rcode, rrs, err := replySets(ret.Items[0], ret.Items[2])
	if err != nil {
		return serial, nil, err
	}
	if rcode != RCodeOK {
		return serial, nil, fmt.Errorf("bind: transfer refused: %s", rcode)
	}
	c.obs.transfers.Inc()
	return serial, rrs, nil
}

// Serial fetches the zone's serial (cheap freshness probe).
func (c *HRPCClient) Serial(ctx context.Context, zone string) (uint32, error) {
	ret, err := c.c.Call(ctx, c.b, procSerial, marshal.StructV(marshal.Str(zone)))
	if err != nil {
		return 0, err
	}
	rcode, _ := ret.Items[0].AsU32()
	serial, _ := ret.Items[1].AsU32()
	if RCode(rcode) != RCodeOK {
		return 0, fmt.Errorf("bind: serial refused: %s", RCode(rcode))
	}
	return serial, nil
}

// ---- Caching resolver.

// CacheMode selects what form cached answers are kept in — the subject of
// Table 3.2.
type CacheMode int

// Cache modes.
const (
	// CacheDemarshalled keeps parsed records; a hit costs only the cache
	// probe (0.83 ms scale).
	CacheDemarshalled CacheMode = iota
	// CacheMarshalled keeps wire-form records and demarshals on every
	// access — the prototype's initial, surprisingly expensive choice
	// (11–26 ms per hit).
	CacheMarshalled
)

// String implements fmt.Stringer.
func (m CacheMode) String() string {
	if m == CacheMarshalled {
		return "marshalled"
	}
	return "demarshalled"
}

// ChargeHit charges ctx for one cache hit returning n records kept in
// mode m — the one pricing rule of Table 3.2. A marshalled entry pays a
// full demarshal in style s plus the probe; a demarshalled entry pays
// the probe and the per-record copy.
func (m CacheMode) ChargeHit(ctx context.Context, s marshal.Style, n int) {
	if m == CacheMarshalled {
		marshal.ChargeRecords(ctx, s, n)
		simtime.Charge(ctx, simtime.CacheHit(0))
		return
	}
	simtime.Charge(ctx, simtime.CacheHit(n))
}

// Resolver wraps a Lookuper with a TTL answer cache. It is safe for
// concurrent use: the cache is sharded, and concurrent misses for the
// same key are coalesced into a single backend lookup (see flightGroup).
type Resolver struct {
	backend Lookuper
	mode    CacheMode
	// style prices marshalled-mode hits: generated for the HRPC backend,
	// hand for the standard backend.
	style   marshal.Style
	cache   *cache.TTL[[]RR]
	flights flightGroup
	// invalidated remembers keys whose cached answer an Invalidate removed
	// and no lookup has refetched yet (see LookupChain). maxEntries caps it
	// as it caps the cache; 0 = unbounded.
	invMu       sync.Mutex
	invalidated map[string]struct{}
	maxEntries  int
	// demarshals counts marshalled-mode hit demarshals
	// (cache_demarshal_total{cache=...}); nil when uninstrumented.
	demarshals *metrics.Counter
	// coalesced counts lookups that joined another caller's in-progress
	// backend fetch (cache_coalesced_total{cache=...}).
	coalesced *metrics.Counter
	// staleFor, when positive, lets Lookup answer from expired entries up
	// to that long past expiry when the backend is unreachable (RFC
	// 8767-style serve-stale). Zero disables degraded mode.
	staleFor time.Duration
}

// ResolverConfig configures NewResolver.
type ResolverConfig struct {
	// Mode selects the cache entry form; default CacheDemarshalled.
	Mode CacheMode
	// Style prices marshalled-mode hits; default StyleGenerated.
	Style marshal.Style
	// Clock drives TTL expiry; default real time.
	Clock simtime.Clock
	// MaxEntries bounds the cache; 0 = unbounded.
	MaxEntries int
	// Metrics, with CacheName, exposes the cache's counters as
	// cache_*{cache=CacheName} series. Nil Metrics or empty CacheName
	// leaves the resolver uninstrumented.
	Metrics *metrics.Registry
	// CacheName labels this resolver's series (e.g. "meta").
	CacheName string
	// StaleFor, when positive, enables serve-stale degraded mode: if the
	// backend (every replica of it) is unreachable, Lookup may answer
	// from an expired cache entry up to StaleFor past its expiry. Served
	// answers count in cache_stale_served_total. Zero keeps strict TTL
	// semantics.
	StaleFor time.Duration
}

// NewResolver creates a caching resolver over backend.
func NewResolver(backend Lookuper, cfg ResolverConfig) *Resolver {
	r := &Resolver{
		backend:  backend,
		mode:     cfg.Mode,
		style:    cfg.Style,
		cache:    cache.New[[]RR](cfg.Clock, cfg.MaxEntries),
		staleFor: cfg.StaleFor,

		invalidated: make(map[string]struct{}),
		maxEntries:  cfg.MaxEntries,
	}
	if cfg.StaleFor > 0 {
		r.cache.SetStaleGrace(cfg.StaleFor)
	}
	if cfg.CacheName != "" && cfg.Metrics.Enabled() {
		r.cache.Instrument(cfg.Metrics, cfg.CacheName)
		r.demarshals = cfg.Metrics.Counter(
			metrics.Labels("cache_demarshal_total", "cache", cfg.CacheName))
		r.coalesced = cfg.Metrics.Counter(
			metrics.Labels("cache_coalesced_total", "cache", cfg.CacheName))
	}
	return r
}

// cacheKey renders "name/type" without fmt's reflection or its
// interface-boxing allocations — this runs on every single lookup. The
// Builder's String() hands back its buffer without another copy, so the
// whole key costs one allocation.
func cacheKey(name string, t RRType) string {
	var sb strings.Builder
	sb.Grow(len(name) + 6) // '/' plus up to 5 digits of a uint16 type
	sb.WriteString(name)
	sb.WriteByte('/')
	var digits [5]byte
	sb.Write(strconv.AppendUint(digits[:0], uint64(t), 10))
	return sb.String()
}

// copyRRs returns a private copy of rrs, deep enough that callers and the
// cache cannot corrupt each other: the slice and each record's Data bytes
// are duplicated (everything else in an RR is immutable value data).
func copyRRs(rrs []RR) []RR {
	if rrs == nil {
		return nil
	}
	out := make([]RR, len(rrs))
	copy(out, rrs)
	for i := range out {
		if out[i].Data != nil {
			out[i].Data = append([]byte(nil), out[i].Data...)
		}
	}
	return out
}

// Lookup implements Lookuper with caching. Hits are priced by cache mode;
// misses go to the backend — concurrent misses for one key share a single
// backend lookup, with each caller charged the full simulated cost — and
// are cached under the answer set's minimum TTL. Returned slices are
// private copies; mutating them cannot corrupt the cache.
func (r *Resolver) Lookup(ctx context.Context, name string, t RRType) ([]RR, error) {
	return r.LookupChain(ctx, name, t, nil)
}

// LookupChain is Lookup for a name whose answer leads to further lookups:
// on a miss, a backend that is a ChainLookuper is asked to follow the steps
// in the same exchange, and every answer set it returns is cached under its
// own name and TTL, so the lookups the caller makes next hit. The result is
// the answer for name alone. A link the backend did not return is simply
// not cached — the caller's next Lookup asks for it.
//
// A name whose cached answer was removed by Invalidate is refetched alone:
// it was invalidated because it changed, and what it led to is usually
// still cached.
func (r *Resolver) LookupChain(ctx context.Context, name string, t RRType, follow []FollowStep) ([]RR, error) {
	cname, err := CanonicalName(name)
	if err != nil {
		return nil, err
	}
	key := cacheKey(cname, t)
	if rrs, ok := r.cache.Get(key); ok {
		r.chargeHit(ctx, len(rrs))
		return copyRRs(rrs), nil
	}
	metrics.CallCounterFrom(ctx).AddMiss()
	fetch := func(ctx context.Context) ([]RR, error) { return r.backend.Lookup(ctx, cname, t) }
	install := func(rrs []RR, err error, _ bool) { r.install(key, rrs, err) }
	chain, _ := r.backend.(ChainLookuper)
	if alone := r.takeInvalidated(key); !alone && chain != nil && len(follow) > 0 {
		var tails [][]RR // written by fetch, read by install: both run on the leader
		fetch = func(ctx context.Context) (head []RR, err error) {
			head, tails, err = chain.LookupChain(ctx, cname, t, follow)
			return head, err
		}
		install = func(rrs []RR, err error, quiet bool) {
			r.install(key, rrs, err)
			if !quiet {
				return // some name was invalidated meanwhile; it may be a tail's
			}
			for _, tail := range tails {
				r.install(cacheKey(tail[0].Name, t), tail, nil)
			}
		}
	}
	rrs, cost, joined, err := r.flights.do(ctx, key, fetch, install)
	if joined {
		metrics.CallCounterFrom(ctx).AddCoalesced()
		r.coalesced.Inc()
	}
	// Each waiter pays the full lookup, exactly as if it had gone to the
	// backend itself — coalescing reduces backend load, not the simulated
	// cost any one client experiences.
	simtime.Charge(ctx, cost)
	if err != nil {
		if rrs, ok := r.staleLookup(ctx, key, err); ok {
			return rrs, nil
		}
		return nil, err
	}
	if joined {
		rrs = copyRRs(rrs)
	}
	return rrs, nil
}

// takeInvalidated reports whether key's cached answer was removed by an
// Invalidate since its last fetch, and forgets it.
func (r *Resolver) takeInvalidated(key string) bool {
	r.invMu.Lock()
	defer r.invMu.Unlock()
	_, ok := r.invalidated[key]
	delete(r.invalidated, key)
	return ok
}

func (r *Resolver) forgetInvalidated() {
	r.invMu.Lock()
	clear(r.invalidated)
	r.invMu.Unlock()
}

// install caches a finished backend lookup's answer under its records'
// minimum TTL; an error, NotFound included, is never remembered. It is the
// resolver's only fetch-driven Put, and flightGroup.do runs it only for a
// flight no Invalidate or Purge superseded.
func (r *Resolver) install(key string, rrs []RR, err error) {
	if err != nil {
		return
	}
	// The cache keeps its own copy so later caller mutations of the
	// returned slice cannot corrupt it.
	r.cache.Put(key, copyRRs(rrs), time.Duration(MinTTL(rrs))*time.Second)
}

// staleLookup is the serve-stale fallback: when a backend lookup failed
// because the backend was unreachable (not a NotFound, not a remote
// fault), answer from an expired cache entry still within the stale
// grace. The hit is priced like any other cache hit and counted in
// cache_stale_served_total (via the cache's stats).
func (r *Resolver) staleLookup(ctx context.Context, key string, cause error) ([]RR, bool) {
	if r.staleFor <= 0 || !hrpc.Unavailable(cause) {
		return nil, false
	}
	rrs, ok := r.cache.GetStale(key)
	if !ok {
		return nil, false
	}
	r.chargeHit(ctx, len(rrs))
	return copyRRs(rrs), true
}

func (r *Resolver) chargeHit(ctx context.Context, n int) {
	r.mode.ChargeHit(ctx, r.style, n)
	if r.mode == CacheMarshalled {
		r.demarshals.Inc()
	}
}

// Preload bulk-installs records (grouped by name/type) with their own
// TTLs — the zone-transfer preloading path. The cache stores private
// copies, so later mutation of the caller's records (or their Data
// bytes) cannot corrupt cached answers.
func (r *Resolver) Preload(rrs []RR) {
	groups := make(map[string][]RR)
	for _, rr := range rrs {
		k := cacheKey(rr.Name, rr.Type)
		groups[k] = append(groups[k], rr)
	}
	for k, g := range groups {
		r.cache.Put(k, copyRRs(g), time.Duration(MinTTL(g))*time.Second)
	}
}

// Stats exposes the cache counters.
func (r *Resolver) Stats() cache.Stats { return r.cache.Stats() }

// LockWaits reports contended shard-lock acquisitions on the answer cache.
func (r *Resolver) LockWaits() int64 { return r.cache.LockWaits() }

// Invalidate drops the cached answer for one (name, type), so the next
// Lookup goes to the backend. A fetch already in flight for the key is
// superseded first: its callers still get the answer they asked for, but
// it is not cached — it may predate the change that prompted the
// invalidation — and the next Lookup starts a new fetch. When an answer
// was actually dropped, the key is remembered so that fetch asks for this
// name alone (see LookupChain).
func (r *Resolver) Invalidate(name string, t RRType) {
	cname, err := CanonicalName(name)
	if err != nil {
		return
	}
	key := cacheKey(cname, t)
	r.flights.supersede(key)
	if r.cache.Delete(key) {
		r.invMu.Lock()
		if r.maxEntries > 0 && len(r.invalidated) >= r.maxEntries {
			for k := range r.invalidated { // full: forget one, any one
				delete(r.invalidated, k)
				break
			}
		}
		r.invalidated[key] = struct{}{}
		r.invMu.Unlock()
	}
}

// Purge empties the cache, superseding every in-flight fetch as Invalidate
// does for one.
func (r *Resolver) Purge() {
	r.flights.supersedeAll()
	r.cache.Purge()
	r.forgetInvalidated()
}

// Sweep proactively removes expired cache entries, reporting how many were
// dropped. It also forgets which names were invalidated: a name nobody has
// asked for since the last sweep would otherwise be remembered for ever by
// an unbounded resolver.
func (r *Resolver) Sweep() int {
	n := r.cache.Sweep()
	r.forgetInvalidated()
	return n
}
