package bind

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ZoneStore is the journal a Server writes zone mutations through. The
// default is nil — no journal, the purely in-memory BIND of the paper —
// which keeps every measured table bit-identical. A durable
// implementation (see Durable) appends each mutation to a write-ahead
// log before the server acknowledges it.
//
// LogUpdate records one dynamic update (UpdateAdd/UpdateRemove) that has
// been applied to the named zone, leaving it at serial. LogReplace
// records a wholesale content swap — bulk load or zone-transfer apply —
// again with the serial the zone ended at. An error from either means
// the mutation is NOT durable and must not be acknowledged.
type ZoneStore interface {
	LogUpdate(zone string, op uint32, rr RR, serial uint32) error
	LogReplace(zone string, serial uint32, rrs []RR) error
}

// The record codec. Records leave memory in one binary form wherever they
// go — the journal, IXFR payloads and BIND's HRPC interface:
//
//	RR  = u16 len name, u16 type, u16 class, u32 ttl, u16 len data
//	run = u16 len name, u16 type, u16 class, u32 ttl, u16 n, (u16 len data)×n
//
// One WAL payload is one mutation, or the marker a checkpoint opens with:
//
//	'U' u32 serial  u16 len zone  u8 op  RR        (dynamic update)
//	'R' u32 serial  u16 len zone  u32 count  RR*   (content replace)
//	'C' u32 zones                                  (checkpoint marker)
//
// A checkpoint is a marker followed by one 'R' image per zone.
// An IXFR payload is a sequence of 'U' records, and a BINDUpdate request
// is one without its kind and serial. Every record list the HRPC
// interface returns is a sets payload: runs, read until it is exhausted.
// A run is a maximal stretch (of at most 65535) consecutive records
// sharing owner, type, class and TTL — a DNS RRset, unless a TTL differs —
// so any sequence round-trips in order and an answer set names its owner
// once. All integers are big-endian. The format is versionless on
// purpose: the kind byte leaves room ('V', ...) if a revision is ever
// needed.
const (
	journalKindUpdate     = 'U'
	journalKindReplace    = 'R'
	journalKindCheckpoint = 'C'
)

// appendPrefixed appends s behind its u16 length.
func appendPrefixed[S string | []byte](b []byte, s S) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// appendRRHead appends all of rr but its data: an RR's head, and a run's
// header but for the count.
func appendRRHead(b []byte, rr RR) []byte {
	b = appendPrefixed(b, rr.Name)
	b = binary.BigEndian.AppendUint16(b, uint16(rr.Type))
	b = binary.BigEndian.AppendUint16(b, rr.Class)
	return binary.BigEndian.AppendUint32(b, rr.TTL)
}

func appendRR(b []byte, rr RR) []byte {
	return appendPrefixed(appendRRHead(b, rr), rr.Data)
}

// appendUpdate appends one dynamic update's zone, op and record.
func appendUpdate(b []byte, zone string, op uint32, rr RR) []byte {
	b = appendPrefixed(b, zone)
	b = append(b, byte(op))
	return appendRR(b, rr)
}

// updateLen is the length of encodeUpdate's payload: kind, serial, zone,
// op and RR.
func updateLen(zone string, rr RR) int {
	return 1 + 4 + 2 + len(zone) + 1 + rrFixedLen + len(rr.Name) + len(rr.Data)
}

// encodeUpdate builds the WAL payload for one dynamic update.
func encodeUpdate(zone string, op uint32, rr RR, serial uint32) []byte {
	b := make([]byte, 0, updateLen(zone, rr))
	b = append(b, journalKindUpdate)
	b = binary.BigEndian.AppendUint32(b, serial)
	return appendUpdate(b, zone, op, rr)
}

// rrFixedLen is the encoded size of an RR apart from its name and data.
const rrFixedLen = 2 + 2 + 2 + 4 + 2

// encodeReplace builds the WAL payload for a content swap, in a buffer
// sized once from the records it will hold.
func encodeReplace(zone string, serial uint32, rrs []RR) []byte {
	size := 1 + 4 + 2 + len(zone) + 4
	for _, rr := range rrs {
		size += rrFixedLen + len(rr.Name) + len(rr.Data)
	}
	b := make([]byte, 0, size)
	b = append(b, journalKindReplace)
	b = binary.BigEndian.AppendUint32(b, serial)
	b = appendPrefixed(b, zone)
	b = binary.BigEndian.AppendUint32(b, uint32(len(rrs)))
	for _, rr := range rrs {
		b = appendRR(b, rr)
	}
	return b
}

// encodeCheckpoint builds the marker for a checkpoint of zones images.
func encodeCheckpoint(zones int) []byte {
	return binary.BigEndian.AppendUint32([]byte{journalKindCheckpoint}, uint32(zones))
}

// sameRun reports whether records a and b may share a run.
func sameRun(a, b RR) bool {
	return a.Name == b.Name && a.Type == b.Type && a.Class == b.Class && a.TTL == b.TTL
}

// appendSets appends rrs as runs.
func appendSets(b []byte, rrs []RR) []byte {
	for len(rrs) > 0 {
		n := 1
		for n < len(rrs) && n < math.MaxUint16 && sameRun(rrs[0], rrs[n]) {
			n++
		}
		b = binary.BigEndian.AppendUint16(appendRRHead(b, rrs[0]), uint16(n))
		for _, rr := range rrs[:n] {
			b = appendPrefixed(b, rr.Data)
		}
		rrs = rrs[n:]
	}
	return b
}

// decodeSets parses a sets payload. It is strict — no empty run, no run
// that continues the one before it, no count the bytes cannot hold,
// nothing truncated or trailing — so what it accepts re-encodes to the
// same bytes. A run's records share one owner string; their data alias
// payload.
func decodeSets(payload []byte) ([]RR, error) {
	d := &journalDecoder{b: payload}
	var out []RR
	var prev uint16 // the previous run's count
	for len(d.b) > 0 {
		head, n := d.head(), uint16(d.num(2))
		if d.err == nil && (n == 0 || int(n) > len(d.b)/2) {
			return nil, fmt.Errorf("bind: run of %d records for %s in %d bytes", n, head.Name, len(d.b))
		}
		if prev != 0 && prev < math.MaxUint16 && sameRun(out[len(out)-1], head) {
			return nil, fmt.Errorf("bind: run for %s continues the one before it", head.Name)
		}
		out = slices.Grow(out, int(n))
		for range n {
			head.Data = d.bytes()
			out = append(out, head)
		}
		prev = n
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// journalRec is one decoded journal record.
type journalRec struct {
	kind   byte
	zone   string
	serial uint32
	op     uint32 // update only
	rr     RR     // update only
	rrs    []RR   // replace only
	zones  uint32 // checkpoint marker only
}

// journalDecoder walks one payload of the record codec. The first read
// past the end sets err and empties b; every read after it yields zeros.
type journalDecoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("bind: truncated record")

// take consumes n bytes; short of them, it sets err and yields nil.
func (d *journalDecoder) take(n int) []byte {
	if d.err == nil && len(d.b) < n {
		d.b, d.err = nil, errTruncated
	}
	if d.err != nil {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// num reads an n-byte big-endian unsigned integer.
func (d *journalDecoder) num(n int) uint64 {
	var v uint64
	for _, c := range d.take(n) {
		v = v<<8 | uint64(c)
	}
	return v
}

func (d *journalDecoder) bytes() []byte { return d.take(int(d.num(2))) }

// head reads what appendRRHead wrote.
func (d *journalDecoder) head() RR {
	return RR{Name: string(d.bytes()), Type: RRType(d.num(2)), Class: uint16(d.num(2)), TTL: uint32(d.num(4))}
}

func (d *journalDecoder) rr() RR {
	rr := d.head()
	rr.Data = d.bytes()
	return rr
}

// update reads what appendUpdate wrote.
func (d *journalDecoder) update() (zone []byte, op uint32, rr RR) {
	return d.bytes(), uint32(d.num(1)), d.rr()
}

// end reports the first short read, or bytes left over after the last
// field.
func (d *journalDecoder) end() error {
	if d.err == nil && len(d.b) != 0 {
		return fmt.Errorf("bind: %d trailing bytes in record", len(d.b))
	}
	return d.err
}

// decodeJournal parses one WAL payload back into a mutation or a
// checkpoint marker.
func decodeJournal(payload []byte) (journalRec, error) {
	d := &journalDecoder{b: payload}
	rec := journalRec{kind: byte(d.num(1)), serial: uint32(d.num(4))}
	var zone []byte
	switch rec.kind {
	case journalKindCheckpoint:
		// A marker's one field, where the others keep their serial.
		rec.zones, rec.serial = rec.serial, 0
		return rec, d.end()
	case journalKindUpdate:
		zone, rec.op, rec.rr = d.update()
	case journalKindReplace:
		zone = d.bytes()
		n := d.num(4)
		if n > uint64(len(d.b)/rrFixedLen) {
			return rec, fmt.Errorf("bind: journal replace claims %d records in %d bytes", n, len(d.b))
		}
		rec.rrs = make([]RR, 0, n)
		for range n {
			rec.rrs = append(rec.rrs, d.rr())
		}
	default:
		if d.err == nil {
			return rec, fmt.Errorf("bind: unknown journal record kind %q", rec.kind)
		}
	}
	rec.zone = string(zone)
	return rec, d.end()
}
