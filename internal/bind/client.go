package bind

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"slices"

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

// Code reports the failure's code (see transport.CodeOf).
func (e *NotFoundError) Code() transport.Code { return transport.CodeNotFound }

// ---- Standard-interface client (hand-coded marshalling).

// StdClient speaks the standard wire protocol to one server, behind a
// circuit breaker that fails calls fast while the server is down. Its
// marshalling is priced at the hand-coded rates: this is the "standard
// BIND library" path (27 ms lookups in the paper).
type StdClient struct {
	net           *transport.Network
	transportName string
	addr          string
	obs           clientObs
	health        *health.Set

	mu   sync.Mutex
	conn transport.Conn
	id   atomic.Uint32
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
	case transport.CodeOf(err).NotFound():
		o.notFound.Inc()
	default:
		o.errs.Inc()
	}
}

// NewStdClient creates a standard-interface client for the server at addr
// over the named transport ("udp" for the classic remote configuration).
func NewStdClient(net *transport.Network, transportName, addr string) *StdClient {
	return &StdClient{
		net:           net,
		transportName: transportName,
		addr:          addr,
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

// call performs one exchange against the server. The handle's mutex
// guards only connection checkout (dialing included); the round trip
// itself runs outside it, so one slow lookup does not serialize every
// goroutine sharing the client.
func (c *StdClient) call(ctx context.Context, req []byte) ([]byte, error) {
	conn, err := c.checkout(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := conn.Call(ctx, req)
	if err != nil {
		c.drop(conn) // the next call redials
	}
	switch {
	case err == nil || transport.CodeOf(err).Answered():
		c.breaker().Success() // a live server answered: a healthy endpoint
	case ctx.Err() == nil:
		c.breaker().Failure()
	}
	return resp, err
}

// breaker returns the server's breaker, created on first use.
func (c *StdClient) breaker() *health.Breaker { return c.health.Breaker(c.addr) }

// checkout returns the shared connection, dialing when none is cached and
// the breaker admits a call. A cached connection is discarded once the
// breaker has opened, so a recovered server is reached on a fresh one.
func (c *StdClient) checkout(ctx context.Context) (transport.Conn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		if ok, _ := c.breaker().Allow(); ok {
			return c.conn, nil
		}
		_ = c.conn.Close()
		c.conn = nil
	}
	tr, err := c.net.Transport(c.transportName)
	if err != nil {
		return nil, err
	}
	if ok, _ := c.breaker().Allow(); !ok {
		return nil, health.ErrNoLiveEndpoint
	}
	conn, err := tr.Dial(ctx, c.addr)
	if err != nil {
		c.breaker().Failure()
		return nil, err
	}
	c.conn = conn
	return conn, nil
}

// drop closes conn and forgets it if it is still the cached connection
// (a concurrent caller may have already replaced it).
func (c *StdClient) drop(conn transport.Conn) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
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
		c.conn = nil
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
	cname, _ := CanonicalName(name) // the owner the answer leaves out
	rrs, err := decodeAnswer(nil, ret.Items[1].Bytes, cname, true)
	if err != nil {
		return nil, err
	}
	// Generated response demarshalling, per record (Table 3.2 pricing).
	marshal.ChargeRecords(ctx, marshal.StyleGenerated, len(rrs))
	if rcode := RCode(ret.Items[0].Num); rcode != RCodeOK {
		return nil, &NotFoundError{Name: name, Type: t, RCode: rcode}
	}
	return rrs, nil
}

// Update applies one dynamic update: Apply of a one-op transaction.
func (c *HRPCClient) Update(ctx context.Context, zone string, op uint32, rr RR) (uint32, error) {
	return c.Apply(ctx, zone, []Op{{op, rr}})
}

// Apply applies ops to zone as one transaction — one exchange, one serial,
// all of it or none — and returns the serial it left the zone at.
func (c *HRPCClient) Apply(ctx context.Context, zone string, ops []Op) (uint32, error) {
	simtime.Charge(ctx, simtime.GenMarshalRequest)
	marshal.ChargeRecords(ctx, marshal.StyleGenerated, len(ops)) // the RRs in the request
	ret, err := c.c.Call(ctx, c.b, procUpdate, marshal.StructV(
		marshal.BytesV(encodeUpdate(zone, ops, 0)[2:]), // a 'u' record but its kind and one-byte serial
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
	rrs, err := decodeSets(ret.Items[2].Bytes)
	if err != nil {
		return serial, nil, err
	}
	if rcode := RCode(ret.Items[0].Num); rcode != RCodeOK {
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
// mode m — the one pricing rule of Table 3.2; both modes store the same
// Answer. A marshalled entry pays a full demarshal in style s plus the
// probe; a demarshalled entry pays the probe and the per-record copy.
func (m CacheMode) ChargeHit(ctx context.Context, s marshal.Style, n int) {
	if m == CacheMarshalled {
		marshal.ChargeRecords(ctx, s, n)
		simtime.Charge(ctx, simtime.CacheHit(0))
		return
	}
	simtime.Charge(ctx, simtime.CacheHit(n))
}

// Answer is one answer set as the resolver caches it, built once when the
// set is installed and shared, never copied, by every reader: a hit, a
// coalesced waiter, a serve-stale answer. Its fields are unexported and
// its record data are strings, so no reader can write through it.
type Answer struct {
	rrs  []RR // each with Data nil: record i's data are data[i]
	data []string
	ttl  uint32 // the records' minimum TTL: how long the cache keeps it
}

func newAnswer(rrs []RR) Answer {
	a := Answer{rrs: slices.Clone(rrs), data: make([]string, len(rrs)), ttl: MinTTL(rrs)}
	for i := range a.rrs {
		a.data[i], a.rrs[i].Data = string(a.rrs[i].Data), nil
	}
	return a
}

// Value returns the value of the answer's first record whose data read
// key=value (see KeyValue): a substring of the answer, not a copy.
func (a Answer) Value(key string) (string, bool) {
	for _, d := range a.data {
		if v, ok := KeyValue(d, key); ok {
			return v, true
		}
	}
	return "", false
}

// RRs returns the answer's records as a private []RR, nil for no answer.
func (a Answer) RRs() []RR {
	out := slices.Clone(a.rrs)
	for i := range out {
		out[i].Data = []byte(a.data[i])
	}
	return out
}

// Resolver wraps a Lookuper with a TTL cache of Answers. It is safe for
// concurrent use, and concurrent misses for the same key are coalesced
// into a single backend lookup (see flightGroup).
type Resolver struct {
	backend Lookuper
	mode    CacheMode
	// style prices marshalled-mode hits: generated for the HRPC backend,
	// hand for the standard backend.
	style   marshal.Style
	cache   *cache.TTL[Answer]
	flights flightGroup
	// invalidated remembers keys whose cached answer an Invalidate removed
	// and no lookup has refetched yet (see LookupChain); Sweep and Purge
	// forget them.
	invMu       sync.Mutex
	invalidated map[string]struct{}
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
		backend:     backend,
		mode:        cfg.Mode,
		style:       cfg.Style,
		cache:       cache.New[Answer](cfg.Clock, 0),
		staleFor:    cfg.StaleFor,
		invalidated: make(map[string]struct{}),
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

// Lookup implements Lookuper with caching. Hits are priced by cache mode;
// misses go to the backend — concurrent misses for one key share a single
// backend lookup, with each caller charged the full simulated cost — and
// are cached under the answer set's minimum TTL. The returned slice is
// the Answer's RRs, private to the caller.
func (r *Resolver) Lookup(ctx context.Context, name string, t RRType) ([]RR, error) {
	a, err := r.LookupChain(ctx, name, t, nil)
	return a.RRs(), err
}

// LookupChain is Lookup returning the shared Answer, for a name whose
// answer leads to further lookups: on a miss, a backend that is a
// ChainLookuper is asked to follow the steps in the same exchange, and
// every answer set it returns is cached under its own name and TTL, so the
// lookups the caller makes next hit. The result is the answer for name
// alone. A link the backend did not return is simply not cached — the
// caller's next Lookup asks for it.
//
// A name whose cached answer was removed by Invalidate is refetched alone:
// it was invalidated because it changed, and what it led to is usually
// still cached.
func (r *Resolver) LookupChain(ctx context.Context, name string, t RRType, follow []FollowStep) (Answer, error) {
	cname, err := CanonicalName(name)
	if err != nil {
		return Answer{}, err
	}
	key := cacheKey(cname, t)
	if a, ok := r.cache.Get(key); ok {
		r.chargeHit(ctx, len(a.rrs))
		return a, nil
	}
	metrics.CallCounterFrom(ctx).AddMiss()
	fetch := func(ctx context.Context) ([]RR, error) { return r.backend.Lookup(ctx, cname, t) }
	install := func(a Answer, _ bool) { r.install(key, a) }
	chain, _ := r.backend.(ChainLookuper)
	if alone := r.takeInvalidated(key); !alone && chain != nil && len(follow) > 0 {
		var tails [][]RR // written by fetch, read by install: both run on the leader
		fetch = func(ctx context.Context) (head []RR, err error) {
			head, tails, err = chain.LookupChain(ctx, cname, t, follow)
			return head, err
		}
		install = func(a Answer, quiet bool) {
			r.install(key, a)
			if !quiet {
				return // some name was invalidated meanwhile; it may be a tail's
			}
			for _, tail := range tails {
				r.install(cacheKey(tail[0].Name, t), newAnswer(tail))
			}
		}
	}
	a, cost, joined, err := r.flights.do(ctx, key, fetch, install)
	if joined {
		r.coalesced.Inc()
	}
	// Each waiter pays the full lookup, exactly as if it had gone to the
	// backend itself — coalescing reduces backend load, not the simulated
	// cost any one client experiences.
	simtime.Charge(ctx, cost)
	if err != nil {
		if a, ok := r.staleLookup(ctx, key, err); ok {
			return a, nil
		}
		return Answer{}, err
	}
	return a, nil
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

// install caches an answer under its records' minimum TTL. flightGroup.do
// runs it only for a successful flight no Invalidate or Purge superseded,
// so an error, NotFound included, is never remembered.
func (r *Resolver) install(key string, a Answer) {
	r.cache.Put(key, a, time.Duration(a.ttl)*time.Second)
}

// staleLookup is the serve-stale fallback: when a backend lookup failed
// because the backend was unreachable (not a NotFound, not a remote
// fault), answer from an expired cache entry still within the stale
// grace. The hit is priced like any other cache hit and counted in
// cache_stale_served_total (via the cache's stats).
func (r *Resolver) staleLookup(ctx context.Context, key string, cause error) (Answer, bool) {
	if r.staleFor <= 0 || !transport.CodeOf(cause).Unreachable() {
		return Answer{}, false
	}
	a, ok := r.cache.GetStale(key)
	if ok {
		r.chargeHit(ctx, len(a.rrs))
	}
	return a, ok
}

func (r *Resolver) chargeHit(ctx context.Context, n int) {
	r.mode.ChargeHit(ctx, r.style, n)
	if r.mode == CacheMarshalled {
		r.demarshals.Inc()
	}
}

// Preload bulk-installs records (grouped by name/type) with their own
// TTLs — the zone-transfer preloading path. Each group becomes an Answer,
// so later mutation of the caller's records (or their Data bytes) cannot
// corrupt cached answers.
func (r *Resolver) Preload(rrs []RR) {
	groups := make(map[string][]RR)
	for _, rr := range rrs {
		k := cacheKey(rr.Name, rr.Type)
		groups[k] = append(groups[k], rr)
	}
	for k, g := range groups {
		r.install(k, newAnswer(g))
	}
}

// Stats exposes the cache counters.
func (r *Resolver) Stats() cache.Stats { return r.cache.Stats() }

// LockWaits reports contended lock acquisitions on the answer cache.
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
// asked for since the last sweep would otherwise be remembered for ever.
func (r *Resolver) Sweep() int {
	n := r.cache.Sweep()
	r.forgetInvalidated()
	return n
}
