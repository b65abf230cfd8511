package bind

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hns/internal/marshal"
)

// The record codec. Records leave memory in one binary form wherever they
// go — a zone's own storage, the journal, IXFR payloads and BIND's HRPC
// interface:
//
//	RR  = name type class ttl data
//	run = name type class ttl n data×n
//
// Every integer is a uvarint as marshal.Packed writes it, and a name, zone
// or data its length then its bytes. A type or class is at most 65535, a
// TTL or serial at most 2³²−1. One WAL payload is one mutation, or the
// marker a checkpoint opens with:
//
//	'u' serial zone (op RR)+      (one transaction)
//	'r' serial zone sets          (the zone whole)
//	'c' zones                     (checkpoint marker)
//
// A 'u' record's ops run to the end of its payload or, where records are
// concatenated, to the next kind byte, which no op (UpdateAdd or
// UpdateRemove, one byte each) can be mistaken for. An 'r' image's sets
// are the zone's owners' stored runs in (name, type, data) order, as a
// transfer carries them; they are checked when a zone takes them in. A
// checkpoint is a marker followed by one 'r' image per zone. An IXFR
// payload is a sequence of 'u' records, one per transaction, and a
// BINDUpdate request is one without its kind and serial. Every record list
// the HRPC interface returns is a sets payload: runs, read until it is
// exhausted. A run is a maximal stretch (of at most 65535) consecutive
// records sharing owner, type, class and TTL — a DNS RRset, unless a TTL
// differs — so any sequence round-trips in order. An answer (appendElided)
// writes the owner of each run the name asked owns as length 0: its asker
// holds that name. The kind byte is the format's revision: the first's
// 'U', 'R' and 'C', whose integers were fixed-width, are refused.
const (
	journalKindUpdate     = 'u'
	journalKindReplace    = 'r'
	journalKindCheckpoint = 'c'
)

// appendPrefixed appends s behind its uvarint length.
func appendPrefixed[S string | []byte](b []byte, s S) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendRRHead appends all of rr but its data: an RR's head, and a run's
// header but for the count.
func appendRRHead(b []byte, rr RR) []byte {
	b = binary.AppendUvarint(appendPrefixed(b, rr.Name), uint64(rr.Type))
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(rr.Class)), uint64(rr.TTL))
}

// appendUpdate appends one transaction's zone, then each op and record.
func appendUpdate(b []byte, zone string, ops []Op) []byte {
	b = appendPrefixed(b, zone)
	for _, op := range ops {
		b = appendPrefixed(appendRRHead(binary.AppendUvarint(b, uint64(op.Op)), op.RR), op.RR.Data)
	}
	return b
}

// uvarintLen is the length of v's uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// prefixedLen is the length of what appendPrefixed appends for s.
func prefixedLen[S string | []byte](s S) int { return uvarintLen(uint64(len(s))) + len(s) }

// updateLen is the length of encodeUpdate's payload.
func updateLen(zone string, ops []Op, serial uint32) int {
	n := 1 + uvarintLen(uint64(serial)) + prefixedLen(zone)
	for _, op := range ops {
		rr := op.RR
		n += 1 + prefixedLen(rr.Name) + uvarintLen(uint64(rr.Type)) + uvarintLen(uint64(rr.Class)) +
			uvarintLen(uint64(rr.TTL)) + prefixedLen(rr.Data)
	}
	return n
}

// encodeUpdate builds the WAL payload for one transaction.
func encodeUpdate(zone string, ops []Op, serial uint32) []byte {
	b := make([]byte, 0, updateLen(zone, ops, serial))
	b = binary.AppendUvarint(append(b, journalKindUpdate), uint64(serial))
	return appendUpdate(b, zone, ops)
}

// appendImageHead appends the head of an 'r' image; the zone's sets follow.
func appendImageHead(b []byte, zone string, serial uint32) []byte {
	return appendPrefixed(binary.AppendUvarint(append(b, journalKindReplace), uint64(serial)), zone)
}

// encodeCheckpoint builds the marker for a checkpoint of zones images.
func encodeCheckpoint(zones int) []byte {
	return binary.AppendUvarint([]byte{journalKindCheckpoint}, uint64(zones))
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
		b = binary.AppendUvarint(appendRRHead(b, rrs[0]), uint64(n))
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
func decodeSets(payload []byte) ([]RR, error) { return appendDecoded(nil, payload, "") }

// appendElided appends sets, runs as a zone stores them, as an answer to
// the asker of name: each run that name owns carries an empty owner, the
// asker already holding it, and is otherwise copied as it is.
func appendElided(b, sets []byte, name string) []byte {
	d := &journalDecoder{b: sets, name: name}
	for len(d.b) > 0 {
		run := d.b
		if d.head().Name == name {
			b, run = append(b, 0), run[prefixedLen(name):]
		}
		for range d.num(math.MaxUint16) {
			d.bytes()
		}
		b = append(b, run[:len(run)-len(d.b)]...)
	}
	return b
}

// decodeAnswer is appendDecoded of an answer to name as appendElided
// writes it: a run with an empty owner is name's. A head may be empty, and
// may name another owner, an alias's target; a tail may do neither. No run
// names name itself, so what it accepts re-encodes to the same bytes.
func decodeAnswer(out []RR, set []byte, name string, head bool) ([]RR, error) {
	n := len(out)
	out, err := appendDecoded(out, set, "")
	if err == nil && len(out) == n && !head {
		err = fmt.Errorf("bind: empty answer for %s", name)
	}
	for i := n; err == nil && i < len(out); i++ {
		switch owner := out[i].Name; {
		case owner == "":
			out[i].Name = name
		case owner == name || !head:
			err = fmt.Errorf("bind: answer for %s names owner %s", name, owner)
		}
	}
	return out, err
}

// appendDecoded is decodeSets appending to out; records owned by owner
// share its string. What a zone stored always decodes.
func appendDecoded(out []RR, payload []byte, owner string) ([]RR, error) {
	d := &journalDecoder{b: payload, name: owner}
	var prev uint64 // the previous run's count
	for len(d.b) > 0 {
		head, n := d.head(), d.num(math.MaxUint16)
		if d.err == nil && (n == 0 || n > uint64(len(d.b))) { // each record's data takes a byte or more
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
	ops    []Op   // update only
	sets   []byte // image only
	zones  uint32 // checkpoint marker only
}

// journalDecoder walks one payload of the record codec. The first read
// past the end or of a field out of range sets err and empties b; every
// read after it yields zeros.
// name is the last owner name read, which records and runs that repeat it
// share rather than each allocate.
type journalDecoder struct {
	b    []byte
	err  error
	name string
}

// take consumes n bytes; short of them, it fails and yields nil.
func (d *journalDecoder) take(n int) []byte {
	if d.err == nil && len(d.b) < n {
		d.b, d.err = nil, fmt.Errorf("bind: record: %w", marshal.ErrTruncated)
	}
	if d.err != nil {
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// num reads a uvarint no greater than max.
func (d *journalDecoder) num(max uint64) uint64 {
	if d.err != nil {
		return 0
	}
	v, rest, err := marshal.Uvarint(d.b, max)
	if err != nil {
		d.err = fmt.Errorf("bind: record: %w", err)
	}
	d.b = rest // nil on error
	return v
}

// bytes reads a length, at most the bytes left, and that many bytes.
func (d *journalDecoder) bytes() []byte { return d.take(int(d.num(uint64(len(d.b))))) }

// head reads what appendRRHead wrote.
func (d *journalDecoder) head() RR {
	if name := d.bytes(); string(name) != d.name {
		d.name = string(name)
	}
	t, class := RRType(d.num(math.MaxUint16)), uint16(d.num(math.MaxUint16))
	return RR{Name: d.name, Type: t, Class: class, TTL: uint32(d.num(math.MaxUint32))}
}

// update reads what appendUpdate wrote: a zone, then one or more ops up
// to the end of the payload or the next record's kind byte — a record
// with no op is truncated — each an add or a remove.
func (d *journalDecoder) update() (zone []byte, ops []Op) {
	zone = d.bytes()
	for d.err == nil && (len(ops) == 0 || len(d.b) > 0 && d.b[0] != journalKindUpdate) {
		op := Op{uint32(d.num(UpdateRemove)), d.head()}
		op.RR.Data = d.bytes()
		ops = append(ops, op)
	}
	return zone, ops
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
	rec := journalRec{kind: byte(d.num(math.MaxUint8))}
	var zone []byte
	switch rec.kind {
	case journalKindCheckpoint:
		rec.zones = uint32(d.num(math.MaxUint32))
		return rec, d.end()
	case journalKindUpdate:
		rec.serial = uint32(d.num(math.MaxUint32))
		zone, rec.ops = d.update()
	case journalKindReplace:
		rec.serial = uint32(d.num(math.MaxUint32))
		zone = d.bytes()
		rec.sets = d.take(len(d.b))
	default:
		if d.err == nil {
			return rec, fmt.Errorf("bind: unknown journal record kind %q", rec.kind)
		}
	}
	rec.zone = string(zone)
	return rec, d.end()
}
