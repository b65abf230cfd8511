package bind

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The record codec. Records leave memory in one binary form wherever they
// go — a zone's own storage, the journal, IXFR payloads and BIND's HRPC
// interface:
//
//	RR  = u16 len name, u16 type, u16 class, u32 ttl, u16 len data
//	run = u16 len name, u16 type, u16 class, u32 ttl, u16 n, (u16 len data)×n
//
// One WAL payload is one mutation, or the marker a checkpoint opens with:
//
//	'U' u32 serial  u16 len zone  (u8 op  RR)+     (one transaction)
//	'R' u32 serial  u16 len zone  sets             (the zone whole)
//	'C' u32 zones                                  (checkpoint marker)
//
// A 'U' record's ops run to the end of its payload or, where records are
// concatenated, to the next kind byte, which no op byte (UpdateAdd or
// UpdateRemove) can be mistaken for. An 'R' image's sets are the zone's
// owners' stored runs in (name, type, data) order, as a transfer carries
// them; they are checked when a zone takes them in. A checkpoint is a
// marker followed by one 'R' image per zone. An IXFR payload is a sequence
// of 'U' records, one per transaction, and a BINDUpdate request is one
// without its kind and serial. Every record list the HRPC interface
// returns is a sets payload: runs, read until it is exhausted.
// A run is a maximal stretch (of at most 65535) consecutive records
// sharing owner, type, class and TTL — a DNS RRset, unless a TTL differs —
// so any sequence round-trips in order. An answer (appendElided) writes
// the owner of each run the name asked owns as length 0: its asker holds
// that name. All integers are big-endian. The format is versionless on
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

// appendUpdate appends one transaction's zone, then each op and record.
func appendUpdate(b []byte, zone string, ops []Op) []byte {
	b = appendPrefixed(b, zone)
	for _, op := range ops {
		b = appendRR(append(b, byte(op.Op)), op.RR)
	}
	return b
}

// updateLen is the length of encodeUpdate's payload.
func updateLen(zone string, ops []Op) int {
	n := 1 + 4 + 2 + len(zone)
	for _, op := range ops {
		n += 1 + rrFixedLen + len(op.RR.Name) + len(op.RR.Data)
	}
	return n
}

// encodeUpdate builds the WAL payload for one transaction.
func encodeUpdate(zone string, ops []Op, serial uint32) []byte {
	b := make([]byte, 0, updateLen(zone, ops))
	b = append(b, journalKindUpdate)
	b = binary.BigEndian.AppendUint32(b, serial)
	return appendUpdate(b, zone, ops)
}

// rrFixedLen is the encoded size of an RR apart from its name and data.
const rrFixedLen = 2 + 2 + 2 + 4 + 2

// appendImageHead appends the head of an 'R' image; the zone's sets follow.
func appendImageHead(b []byte, zone string, serial uint32) []byte {
	b = binary.BigEndian.AppendUint32(append(b, journalKindReplace), serial)
	return appendPrefixed(b, zone)
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
func decodeSets(payload []byte) ([]RR, error) { return appendDecoded(nil, payload, "") }

// appendElided appends sets, runs as a zone stores them, as an answer to
// the asker of name: each run that name owns carries an empty owner, the
// asker already holding it, and is otherwise copied as it is.
func appendElided(b, sets []byte, name string) []byte {
	d := &journalDecoder{b: sets}
	for len(d.b) > 0 {
		run := d.b
		if string(d.bytes()) == name {
			b, run = append(b, 0, 0), d.b
		}
		d.take(2 + 2 + 4)
		for range d.num(2) {
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
	ops    []Op   // update only
	sets   []byte // image only
	zones  uint32 // checkpoint marker only
}

// journalDecoder walks one payload of the record codec. The first read
// past the end sets err and empties b; every read after it yields zeros.
// name is the last owner name read, which records and runs that repeat it
// share rather than each allocate.
type journalDecoder struct {
	b    []byte
	err  error
	name string
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
	if name := d.bytes(); string(name) != d.name {
		d.name = string(name)
	}
	return RR{Name: d.name, Type: RRType(d.num(2)), Class: uint16(d.num(2)), TTL: uint32(d.num(4))}
}

// update reads what appendUpdate wrote: a zone, then one or more ops up
// to the end of the payload or the next record's kind byte — a record
// with no op is truncated — each an add or a remove.
func (d *journalDecoder) update() (zone []byte, ops []Op) {
	zone = d.bytes()
	for d.err == nil && (len(ops) == 0 || len(d.b) > 0 && d.b[0] != journalKindUpdate) {
		op := Op{uint32(d.num(1)), d.head()}
		op.RR.Data = d.bytes()
		if op.Op > UpdateRemove {
			d.b, d.err = nil, fmt.Errorf("bind: unknown update op %d", op.Op)
		}
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
	rec := journalRec{kind: byte(d.num(1)), serial: uint32(d.num(4))}
	var zone []byte
	switch rec.kind {
	case journalKindCheckpoint:
		// A marker's one field, where the others keep their serial.
		rec.zones, rec.serial = rec.serial, 0
		return rec, d.end()
	case journalKindUpdate:
		zone, rec.ops = d.update()
	case journalKindReplace:
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
