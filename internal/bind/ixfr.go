package bind

// IXFR-style incremental zone transfer and the push-invalidation plane.
//
// The paper's secondaries (and the HNS preloader) re-fetch whole zones to
// learn about any change — AXFR every refresh. At fleet scale most
// refreshes move bytes that have not changed. This file adds the two
// halves that fix it server-side:
//
//   - TransferDelta ("changes since serial S"): answered from the
//     zone's history (Zone.DiffSince), the newest transactions that fit
//     one reply. A peer it reaches back to receives only the transactions
//     it missed, encoded as the journal codec's 'U' records; an older peer
//     is told to take a full transfer. Cost is charged per transaction,
//     so an incremental catch-up is priced by what moved, not by zone
//     size.
//
//   - Subscribe: a client on a multiplexed connection registers for
//     push invalidations; every transaction then fans one serial-bump
//     notification naming what it touched out over the transport's
//     server-initiated frames (NOTIFY). The subscriber table is bounded —
//     an overflowing or push-incapable peer is refused and falls back to
//     TTL polling.
//
// Every zone keeps its history; recording it charges nothing, and no
// paper path asks for a delta. The push plane is opt-in (EnablePush);
// at the defaults the server is byte- and cost-identical to the paper's.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// ErrSubscribeUnsupported is the fault a Subscribe call raises when the
// carrying connection cannot receive pushes (a datagram transport) or
// the server has no push plane enabled. Clients latch it and fall back
// to TTL polling.
var ErrSubscribeUnsupported = errors.New("bind: subscribe unsupported on this connection")

// encodeDiffs renders an incremental transfer payload: one journal 'U'
// record per transaction, oldest first — byte-compatible with the WAL
// format, decoded by the same walker.
func encodeDiffs(zone string, diffs []DiffRec) []byte {
	var b []byte
	for _, d := range diffs {
		b = append(b, encodeUpdate(zone, d.Ops, d.Serial)...)
	}
	return b
}

// decodeDiffs parses an incremental transfer payload back into its
// transactions, enforcing that every record is an update for zone and
// that serials strictly increase — a malformed or spliced payload fails
// whole rather than half-applying.
func decodeDiffs(zone string, payload []byte) ([]DiffRec, error) {
	var out []DiffRec
	d := &journalDecoder{b: payload}
	var last uint32
	for len(d.b) > 0 {
		kind, serial := byte(d.num(1)), uint32(d.num(4))
		zb, ops := d.update()
		switch {
		case d.err != nil:
			return nil, d.err
		case kind != journalKindUpdate:
			return nil, fmt.Errorf("bind: ixfr payload has non-update record kind %q", kind)
		case string(zb) != zone:
			return nil, fmt.Errorf("bind: ixfr record for zone %q in a %q transfer", zb, zone)
		case len(out) > 0 && serial <= last:
			return nil, fmt.Errorf("bind: ixfr serials not increasing (%d after %d)", serial, last)
		}
		last = serial
		out = append(out, DiffRec{Serial: serial, Ops: ops})
	}
	return out, nil
}

// TransferDelta answers "changes to zoneOrigin since serial since".
// ok=true with an empty diff means the peer is already current. ok=false
// means the zone's history cannot prove continuity from since — the caller
// must take a full Transfer. The serial reported with a diff is the one
// its last transaction left the zone at, so an update landing meanwhile is
// not claimed by a peer that never received it. Cost is charged per
// transaction moved, the whole point of the incremental path.
func (s *Server) TransferDelta(ctx context.Context, zoneOrigin string, since uint32) (rcode RCode, serial uint32, diffs []DiffRec, ok bool) {
	z := s.Zone(zoneOrigin)
	if z == nil {
		return RCodeRefused, 0, nil, false
	}
	diffs, ok = z.DiffSince(since)
	if !ok {
		s.reg.Counter(metrics.Labels("ixfr_requests_total", "result", "fallback")).Inc()
		return RCodeOK, z.Serial(), nil, false
	}
	serial = since
	if len(diffs) > 0 {
		serial = diffs[len(diffs)-1].Serial
	}
	simtime.Charge(ctx, simtime.ZoneXfer(len(diffs)))
	s.reg.Counter(metrics.Labels("ixfr_requests_total", "result", "diff")).Inc()
	s.reg.Counter("ixfr_records_total").Add(int64(len(diffs)))
	return RCodeOK, serial, diffs, true
}

// EnablePush equips the server with a push plane: a bounded subscriber
// table fed by every dynamic update. maxSubscribers <= 0 uses
// push.DefaultMaxSubscribers. Off (the default) the server never sends
// a server-initiated frame and Subscribe calls are refused.
func (s *Server) EnablePush(maxSubscribers int) {
	s.pushTab.Store(push.NewTable(maxSubscribers, s.reg))
}

// publish sends subscribers one NOTIFY for an applied transaction, naming
// its owners; nil ops is a zone-level event. No-op with push disabled.
func (s *Server) publish(zone string, ops []Op, serial uint32) {
	if t := s.pushTab.Load(); t != nil {
		t.Publish(push.Notification{Zone: zone, Names: opNames(ops), Serial: serial})
	}
}

// opNames lists the canonical owners ops touch, in order, once per run of
// ops on an owner: what subscribers filter by.
func opNames(ops []Op) []string {
	var names []string
	for _, op := range ops {
		if len(names) == 0 || names[len(names)-1] != op.RR.Name {
			names = append(names, op.RR.Name)
		}
	}
	return names
}

// The incremental-transfer and subscription procedures. ID 5 belonged to a
// retired procedure and is not reused.
var (
	procIxfr = hrpc.Procedure{
		Name: "BINDIxfr", ID: 6,
		Args:  marshal.TStruct(marshal.TString, marshal.TUint32),
		Ret:   marshal.TStruct(marshal.TUint32, marshal.TUint32, marshal.TUint32, marshal.TBytes),
		Style: marshal.StyleNone,
	}
	procSubscribe = hrpc.Procedure{
		Name: "BINDSubscribe", ID: 7,
		Args:  marshal.TStruct(marshal.TString, marshal.TList(marshal.TString), marshal.TUint32),
		Ret:   marshal.TStruct(marshal.TUint32, marshal.TUint32),
		Style: marshal.StyleNone,
	}
)

// ixfrFull is the in-band "older than the history" flag: the client must
// fall back to a full transfer.
const (
	ixfrIncremental = 0
	ixfrFull        = 1
)

// registerPush wires the IXFR and Subscribe procedures onto hs.
func (s *Server) registerPush(hs *hrpc.Server) {
	hs.Register(procIxfr, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		zone, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		since, err := args.Items[1].AsU32()
		if err != nil {
			return marshal.Value{}, err
		}
		rcode, serial, diffs, ok := s.TransferDelta(ctx, zone, since)
		if !ok {
			return marshal.StructV(marshal.U32(uint32(rcode)), marshal.U32(serial),
				marshal.U32(ixfrFull), marshal.BytesV(nil)), nil
		}
		payload := encodeDiffs(zone, diffs)
		s.reg.Counter("ixfr_bytes_total").Add(int64(len(payload)))
		return marshal.StructV(marshal.U32(uint32(rcode)), marshal.U32(serial),
			marshal.U32(ixfrIncremental), marshal.BytesV(payload)), nil
	})
	hs.Register(procSubscribe, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		zone, err := args.Items[0].AsString()
		if err != nil {
			return marshal.Value{}, err
		}
		var names []string
		for _, it := range args.Items[1].Items {
			n, err := it.AsString()
			if err != nil {
				return marshal.Value{}, err
			}
			names = append(names, n)
		}
		// args.Items[2] is the subscriber's last-seen serial; the reply's
		// current serial tells it whether to catch up first (via IXFR).
		tab := s.pushTab.Load()
		if tab == nil {
			return marshal.Value{}, ErrSubscribeUnsupported
		}
		z := s.Zone(zone)
		if z == nil {
			return marshal.StructV(marshal.U32(uint32(RCodeRefused)), marshal.U32(0)), nil
		}
		pusher, ok := transport.PusherFrom(ctx)
		if !ok {
			// Legacy framing or a datagram transport: no push channel.
			return marshal.Value{}, ErrSubscribeUnsupported
		}
		if _, ok := tab.Add(push.Subscription{Zone: z.Origin(), Names: names}, pusher); !ok {
			// Table full: refuse so the client degrades to polling.
			return marshal.Value{}, fmt.Errorf("bind: subscriber table full for %s", z.Origin())
		}
		return marshal.StructV(marshal.U32(uint32(RCodeOK)), marshal.U32(z.Serial())), nil
	})
}

// pushTabPtr aliases the atomic holder so Server stays tidy.
type pushTabPtr = atomic.Pointer[push.Table]
