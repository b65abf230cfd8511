package bind

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// Server is an authoritative BIND server over a set of zones. One Server
// can expose both the standard interface and the HRPC interface at once
// (the prototype ran a conventional BIND and a separate modified BIND; a
// deployment here does the same by running two Servers).
type Server struct {
	host string
	reg  *metrics.Registry

	mu    sync.RWMutex
	zones []*Zone // sorted longest-origin-first for suffix matching

	// journal, when set, receives every zone mutation made through this
	// Server before the mutation is acknowledged: each transaction, and
	// each wholesale swap (a load, a transfer applied) as the zone's image.
	// An error means the mutation is not durable and must not be
	// acknowledged. journalMu serializes each apply, journal and publish,
	// so journaled and published serials strictly increase per zone, and a
	// forced checkpoint takes it too. nil (the default) is the paper's
	// in-memory BIND.
	journalMu sync.Mutex
	journal   *Durable

	// pushTab, when set (EnablePush), holds the push-invalidation
	// subscriber table; every applied update fans a notification out to
	// it. nil (the default) sends nothing — the paper's poll-only server.
	pushTab pushTabPtr
}

// NewServer creates a zoneless server on host. It records its query,
// update, and transfer counters into the process-wide metrics registry.
// The variadic *simtime.Model is ignored: it is a retired shape kept
// only so bench/hnsload, which still passes one, compiles. No other
// caller passes it.
func NewServer(host string, _ ...*simtime.Model) *Server {
	return &Server{host: host, reg: metrics.Default()}
}

// AddZone makes the server authoritative for z. Duplicate origins are
// rejected.
func (s *Server) AddZone(z *Zone) error {
	s.mu.Lock()
	for _, have := range s.zones {
		if have.Origin() == z.Origin() {
			s.mu.Unlock()
			return fmt.Errorf("bind: already authoritative for %s", z.Origin())
		}
	}
	s.zones = append(s.zones, z)
	sort.Slice(s.zones, func(i, j int) bool {
		return len(s.zones[i].Origin()) > len(s.zones[j].Origin())
	})
	s.mu.Unlock()
	return nil
}

// Zone returns the zone with the given origin, or nil.
func (s *Server) Zone(origin string) *Zone {
	origin, err := CanonicalName(origin)
	if err != nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, z := range s.zones {
		if z.Origin() == origin {
			return z
		}
	}
	return nil
}

// findZone locates the longest-origin zone containing name.
func (s *Server) findZone(name string) *Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, z := range s.zones {
		if z.Contains(name) {
			return z
		}
	}
	return nil
}

// Query answers one lookup, charging the server-side lookup cost.
func (s *Server) Query(ctx context.Context, name string, t RRType) (RCode, []RR) {
	rcode, sets := s.answer(ctx, name, t)
	rrs, _ := decodeSets(sets) // the zone's own runs
	return rcode, rrs
}

// answer is Query's answer as the zone holds it: the runs BINDQuery sends.
func (s *Server) answer(ctx context.Context, name string, t RRType) (RCode, []byte) {
	rcode, sets := s.query(ctx, name, t)
	s.reg.Counter(metrics.Labels("bind_queries_total",
		"type", t.String(), "rcode", rcode.String())).Inc()
	return rcode, sets
}

func (s *Server) query(ctx context.Context, name string, t RRType) (RCode, []byte) {
	simtime.Charge(ctx, simtime.BindServerLookup)
	name, err := CanonicalName(name)
	if err != nil {
		return RCodeFormErr, nil
	}
	z := s.findZone(name)
	if z == nil {
		return RCodeRefused, nil // not authoritative
	}
	sets, err := z.answer(name, t)
	if err != nil {
		return RCodeServFail, nil
	}
	if len(sets) == 0 {
		return RCodeNXDomain, nil
	}
	return RCodeOK, sets
}

// Update operations for the dynamic-update extension.
const (
	UpdateAdd    = 0
	UpdateRemove = 1
)

// SetJournal routes every subsequent zone mutation made through this
// Server into j before it is acknowledged. A nil journal (the default)
// is the purely in-memory server. Normally called via Durable.Attach.
func (s *Server) SetJournal(j *Durable) {
	s.journalMu.Lock()
	s.journal = j
	s.journalMu.Unlock()
}

// Apply applies ops to the named zone as one transaction — RFC 2136's
// model: all or nothing, at one serial — charging the server-side update
// cost once. Only zones created with allowUpdate accept it. An empty
// transaction, one naming an owner this server does not serve from that
// zone, or one whose 'u' record, at the widest serial, would not fit a
// reply (the history and an IXFR answer carry it whole) is FORMERR,
// refused before anything is staged. One that fails to stage, or to be
// journaled, is SERVFAIL: after a journal failure it may be in memory but
// will not survive a restart.
func (s *Server) Apply(ctx context.Context, zoneOrigin string, ops []Op) (rcode RCode, serial uint32, err error) {
	defer func() {
		s.reg.Counter(metrics.Labels("bind_updates_total", "rcode", rcode.String())).Inc()
	}()
	simtime.Charge(ctx, simtime.BindServerUpdate)
	z := s.Zone(zoneOrigin)
	if z == nil {
		return RCodeRefused, 0, fmt.Errorf("bind: not authoritative for %q", zoneOrigin)
	}
	if !z.AllowsUpdate() {
		return RCodeRefused, z.Serial(), ErrUpdateDenied
	}
	ops = slices.Clone(ops) // canonical owners, journaled and published as such
	for i := range ops {
		rr := &ops[i].RR
		if rr.Name, err = CanonicalName(rr.Name); err == nil && s.findZone(rr.Name) != z {
			err = fmt.Errorf("%w: %s is not served from %s", ErrNotInZone, rr.Name, z.Origin())
		}
		if err != nil {
			return RCodeFormErr, z.Serial(), err
		}
	}
	if n := updateLen(z.Origin(), ops, math.MaxUint32); len(ops) == 0 || n > replyBudget {
		return RCodeFormErr, z.Serial(), fmt.Errorf("bind: a transaction of %d ops in %d bytes; want 1 or more in at most %d", len(ops), n, replyBudget)
	}
	return s.apply(z, ops, 0)
}

// apply is every journaled change to z past its checks: it applies ops as
// one transaction, journals it and publishes it as one NOTIFY, all under
// journalMu. A mirror passes the serial its primary gave the transaction
// as at; 0 keeps the zone's own.
func (s *Server) apply(z *Zone, ops []Op, at uint32) (RCode, uint32, error) {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	serial, err := z.Apply(ops)
	if err != nil {
		return RCodeServFail, serial, err
	}
	if at != 0 {
		z.ForceSerial(at)
		serial = at
	}
	if s.journal != nil {
		if err := s.journal.LogUpdate(z.Origin(), ops, serial); err != nil {
			return RCodeServFail, serial, fmt.Errorf("bind: update not durable: %w", err)
		}
	}
	s.publish(z.Origin(), ops, serial)
	return RCodeOK, serial, nil
}

// Transfer returns the zone's full contents (AXFR) as one sets payload in
// (name, type, data) order, charging the per-record transfer cost — the
// mechanism the HNS uses to preload its cache.
func (s *Server) Transfer(ctx context.Context, zoneOrigin string) (RCode, uint32, []byte) {
	z := s.Zone(zoneOrigin)
	if z == nil {
		return RCodeRefused, 0, nil
	}
	z.mu.RLock()
	sets, serial, n := z.appendSorted(make([]byte, 0, z.held)), z.serial, z.count
	z.mu.RUnlock()
	simtime.Charge(ctx, simtime.ZoneXfer(n))
	s.reg.Counter("bind_transfers_total").Inc()
	s.reg.Counter("bind_transfer_records_total").Add(int64(n))
	return RCodeOK, serial, sets
}

// ---- Standard interface (DNS-style wire, hand marshalling).

// StdHandler adapts the server to the standard wire protocol. Query only —
// the conventional BIND of the era had no dynamic update or client-visible
// transfer call.
func (s *Server) StdHandler() transport.Handler {
	return func(ctx context.Context, req []byte) ([]byte, error) {
		q, err := DecodeMessage(req)
		resp := &Message{Response: true, QName: "invalid"}
		if err != nil {
			// The question may be unrecoverable; answer FORMERR with a
			// placeholder name so the response still encodes.
			resp.RCode = RCodeFormErr
			return EncodeMessage(resp)
		}
		resp.ID = q.ID
		resp.QName = q.QName
		resp.QType = q.QType
		if q.Response {
			resp.RCode = RCodeFormErr
			return EncodeMessage(resp)
		}
		resp.RCode, resp.Answers = s.Query(ctx, q.QName, q.QType)
		return EncodeMessage(resp)
	}
}

// ServeStd binds the standard interface at addr over the named transport
// (conventionally "udp"; port 53 in spirit).
func (s *Server) ServeStd(net *transport.Network, transportName, addr string) (transport.Listener, error) {
	tr, err := net.Transport(transportName)
	if err != nil {
		return nil, err
	}
	return tr.Listen(addr, s.StdHandler())
}

// ---- HRPC interface (Raw suite, records in the journal's codec).

// HRPCProgram and HRPCVersion identify the BIND HRPC interface. Version 3
// records' integers are uvarints; callers of earlier versions are refused.
const (
	HRPCProgram = 100017
	HRPCVersion = 3
)

// The HRPC procedures. Records cross this interface in the record codec
// of journal.go, each list as one opaque sets payload, never as one IDL
// struct per record. Marshalling is still priced explicitly per message
// by record count (Table 3.2), so the stubs use StyleNone.
var (
	procQuery = hrpc.Procedure{
		Name: "BINDQuery", ID: 1,
		Args:  marshal.TStruct(marshal.TString, marshal.TUint32),
		Ret:   marshal.TStruct(marshal.TUint32, marshal.TBytes), // rcode, sets
		Style: marshal.StyleNone,
	}
	procUpdate = hrpc.Procedure{
		Name: "BINDUpdate", ID: 2,
		Args:  marshal.TStruct(marshal.TBytes), // zone, (op, RR)+
		Ret:   marshal.TStruct(marshal.TUint32, marshal.TUint32),
		Style: marshal.StyleNone,
	}
	procTransfer = hrpc.Procedure{
		Name: "BINDTransfer", ID: 3,
		Args:  marshal.TStruct(marshal.TString),
		Ret:   marshal.TStruct(marshal.TUint32, marshal.TUint32, marshal.TBytes), // rcode, serial, sets
		Style: marshal.StyleNone,
	}
	procSerial = hrpc.Procedure{
		Name: "BINDSerial", ID: 4,
		Args:  marshal.TStruct(marshal.TString),
		Ret:   marshal.TStruct(marshal.TUint32, marshal.TUint32),
		Style: marshal.StyleNone,
	}
)

// queryType reads a question's type off the wire, refusing one wider
// than a type.
func queryType(v marshal.Value) (RRType, error) {
	qt, err := v.AsU32()
	if err == nil && qt > math.MaxUint16 {
		err = fmt.Errorf("bind: query type %d out of range", qt)
	}
	return RRType(qt), err
}

// HRPCServer wraps the server in the HRPC interface program.
func (s *Server) HRPCServer() *hrpc.Server {
	hs := hrpc.NewServer("bind-hrpc@"+s.host, HRPCProgram, HRPCVersion)
	hs.Register(procQuery, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		name, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		qt, err := queryType(args.Items[1])
		if err != nil {
			return marshal.Value{}, err
		}
		cname, _ := CanonicalName(name)
		s.rearm(ctx, cname)
		rcode, sets := s.answer(ctx, name, qt)
		sets = appendElided(make([]byte, 0, len(sets)), sets, cname)
		return marshal.StructV(marshal.U32(uint32(rcode)), marshal.BytesV(sets)), nil
	})
	hs.Register(procUpdate, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		req, err := args.Items[0].AsBytes()
		if err != nil {
			return marshal.Value{}, err
		}
		d := &journalDecoder{b: req}
		zone, ops := d.update()
		if err := d.end(); err != nil {
			return marshal.Value{}, fmt.Errorf("%s: %v", RCodeFormErr, err)
		}
		rcode, serial, uerr := s.Apply(ctx, string(zone), ops)
		if uerr != nil {
			return marshal.Value{}, fmt.Errorf("%s: %v", rcode, uerr)
		}
		return marshal.StructV(marshal.U32(uint32(rcode)), marshal.U32(serial)), nil
	})
	hs.Register(procTransfer, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		zone, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		s.rearm(ctx)
		rcode, serial, sets := s.Transfer(ctx, zone)
		return marshal.StructV(marshal.U32(uint32(rcode)), marshal.U32(serial), marshal.BytesV(sets)), nil
	})
	hs.Register(procSerial, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		zone, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		z := s.Zone(zone)
		if z == nil {
			return marshal.StructV(marshal.U32(uint32(RCodeRefused)), marshal.U32(0)), nil
		}
		// Between transactions: every NOTIFY up to the serial answered was
		// pushed before this reply (Subscriber.Sync rests on it).
		s.journalMu.Lock()
		serial := z.Serial()
		s.journalMu.Unlock()
		return marshal.StructV(marshal.U32(uint32(RCodeOK)), marshal.U32(serial)), nil
	})
	hs.Register(procQueryChain, s.queryChain)
	s.registerPush(hs)
	return hs
}

// ServeHRPC binds the HRPC interface at addr over the Raw suite (as the
// prototype did) and returns the listener plus the binding.
func (s *Server) ServeHRPC(net *transport.Network, addr string) (transport.Listener, hrpc.Binding, error) {
	return hrpc.Serve(net, s.HRPCServer(), hrpc.SuiteRaw, s.host, addr)
}

// LoadRecords bulk-adds records to the server's zones, routing each to the
// longest-origin zone containing it, with the outcome of one Zone.Add per
// record in order — except that it is all or nothing: the first record
// that would fail leaves every zone as it was and is the error returned.
// With a journal set, each touched zone's full contents are then journaled
// as one image; a journal failure leaves the load in memory but not
// durable, and the caller must not go on to serve it. A push-enabled
// server then tells subscribers of each zone one zone-level NOTIFY.
func (s *Server) LoadRecords(rrs []RR) error {
	return s.load(0, func(add func(string, []RR) error) error { return eachRun(rrs, add) })
}

// LoadZoneFile is LoadRecords of the records in text, a zone file in
// ParseZoneFile's format, read in one pass straight into each zone's
// stored runs: no record list is built, and owner names share a few
// backing stores. It returns how many records text held.
func (s *Server) LoadZoneFile(text []byte) (records int, err error) {
	var names nameArena
	err = s.load(len(text), func(add func(string, []RR) error) error {
		return eachZoneRun(text, names.intern, func(run []RR) error {
			records += len(run)
			return add(run[0].Name, run)
		})
	})
	return records, err
}

// load runs one bulk load: stage hands add each run of records under one
// canonical owner name, staged in the longest-origin zone holding it. It
// holds the journal lock throughout, and each zone's write lock from its
// first record to the commit, so loads never meet. If stage fails no zone
// changes; else each commits — one serial per record, as that many adds,
// its history restarted, as after Replace — journals one image and
// publishes one zone-level NOTIFY at its new serial. size is the capacity
// each zone's arena starts with.
func (s *Server) load(size int, stage func(add func(name string, run []RR) error) error) error {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	s.mu.RLock()
	zones := slices.Clone(s.zones)
	s.mu.RUnlock()
	var txns []*txn // in first-touch order
	err := stage(func(name string, run []RR) error {
		k := slices.IndexFunc(zones, func(z *Zone) bool { return z.Contains(name) })
		if k < 0 {
			return fmt.Errorf("bind: no zone for %s", name)
		}
		i := slices.IndexFunc(txns, func(t *txn) bool { return t.z == zones[k] })
		if i < 0 {
			i = len(txns)
			zones[k].mu.Lock()
			txns = append(txns, zones[k].begin(size))
		}
		return txns[i].add(name, run)
	})
	for _, t := range txns {
		if err == nil {
			t.commit()
			t.z.serial += t.n
			t.z.diff, t.z.diffBytes = nil, 0
		}
		t.z.mu.Unlock()
	}
	for _, t := range txns {
		if err != nil {
			break
		}
		if s.journal != nil {
			if err = s.journal.LogImage(t.z.Origin(), t.z.image()); err != nil {
				err = fmt.Errorf("bind: load not durable for %s: %w", t.z.Origin(), err)
				break
			}
		}
		s.publish(t.z.Origin(), nil, t.z.Serial())
	}
	return err
}

// ZoneOrigins lists the origins the server is authoritative for.
func (s *Server) ZoneOrigins() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.zones))
	for _, z := range s.zones {
		out = append(out, z.Origin())
	}
	sort.Strings(out)
	return out
}

// String implements fmt.Stringer.
func (s *Server) String() string {
	return fmt.Sprintf("bind[%s zones=%s]", s.host, strings.Join(s.ZoneOrigins(), ","))
}
