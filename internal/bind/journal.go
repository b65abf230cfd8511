package bind

import (
	"encoding/binary"
	"fmt"
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

// Journal record wire format. One WAL payload is one mutation:
//
//	'U' u32 serial  u16 len zone  u8 op  RR        (dynamic update)
//	'R' u32 serial  u16 len zone  u32 count  RR*   (content replace)
//
// with RR = u16 len name, u16 type, u16 class, u32 ttl, u16 len data.
// All integers big-endian. The format is versionless on purpose: the
// kind byte leaves room ('V', ...) if a revision is ever needed.
const (
	journalKindUpdate  = 'U'
	journalKindReplace = 'R'
)

func appendU16String(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendRR(b []byte, rr RR) []byte {
	b = appendU16String(b, rr.Name)
	b = binary.BigEndian.AppendUint16(b, uint16(rr.Type))
	b = binary.BigEndian.AppendUint16(b, rr.Class)
	b = binary.BigEndian.AppendUint32(b, rr.TTL)
	b = binary.BigEndian.AppendUint16(b, uint16(len(rr.Data)))
	return append(b, rr.Data...)
}

// encodeUpdate builds the WAL payload for one dynamic update.
func encodeUpdate(zone string, op uint32, rr RR, serial uint32) []byte {
	b := make([]byte, 0, 16+len(zone)+len(rr.Name)+len(rr.Data))
	b = append(b, journalKindUpdate)
	b = binary.BigEndian.AppendUint32(b, serial)
	b = appendU16String(b, zone)
	b = append(b, byte(op))
	return appendRR(b, rr)
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
	b = appendU16String(b, zone)
	b = binary.BigEndian.AppendUint32(b, uint32(len(rrs)))
	for _, rr := range rrs {
		b = appendRR(b, rr)
	}
	return b
}

// journalRec is one decoded journal record.
type journalRec struct {
	kind   byte
	zone   string
	serial uint32
	op     uint32 // update only
	rr     RR     // update only
	rrs    []RR   // replace only
}

// journalDecoder walks one record payload.
type journalDecoder struct {
	b []byte
}

func (d *journalDecoder) u8() (byte, error) {
	if len(d.b) < 1 {
		return 0, fmt.Errorf("bind: truncated journal record")
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *journalDecoder) u16() (uint16, error) {
	if len(d.b) < 2 {
		return 0, fmt.Errorf("bind: truncated journal record")
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v, nil
}

func (d *journalDecoder) u32() (uint32, error) {
	if len(d.b) < 4 {
		return 0, fmt.Errorf("bind: truncated journal record")
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v, nil
}

func (d *journalDecoder) bytes() ([]byte, error) {
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if len(d.b) < int(n) {
		return nil, fmt.Errorf("bind: truncated journal record")
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v, nil
}

func (d *journalDecoder) rr() (RR, error) {
	name, err := d.bytes()
	if err != nil {
		return RR{}, err
	}
	t, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	class, err := d.u16()
	if err != nil {
		return RR{}, err
	}
	ttl, err := d.u32()
	if err != nil {
		return RR{}, err
	}
	data, err := d.bytes()
	if err != nil {
		return RR{}, err
	}
	return RR{Name: string(name), Type: RRType(t), Class: class, TTL: ttl, Data: data}, nil
}

// decodeJournal parses one WAL payload back into a mutation.
func decodeJournal(payload []byte) (journalRec, error) {
	d := &journalDecoder{b: payload}
	var rec journalRec
	var err error
	if rec.kind, err = d.u8(); err != nil {
		return rec, err
	}
	if rec.serial, err = d.u32(); err != nil {
		return rec, err
	}
	zone, err := d.bytes()
	if err != nil {
		return rec, err
	}
	rec.zone = string(zone)
	switch rec.kind {
	case journalKindUpdate:
		op, err := d.u8()
		if err != nil {
			return rec, err
		}
		rec.op = uint32(op)
		if rec.rr, err = d.rr(); err != nil {
			return rec, err
		}
	case journalKindReplace:
		n, err := d.u32()
		if err != nil {
			return rec, err
		}
		if int(n) > len(d.b)/11 { // 11 bytes = minimal encoded RR
			return rec, fmt.Errorf("bind: journal replace claims %d records in %d bytes", n, len(d.b))
		}
		rec.rrs = make([]RR, 0, n)
		for i := uint32(0); i < n; i++ {
			rr, err := d.rr()
			if err != nil {
				return rec, err
			}
			rec.rrs = append(rec.rrs, rr)
		}
	default:
		return rec, fmt.Errorf("bind: unknown journal record kind %q", rec.kind)
	}
	if len(d.b) != 0 {
		return rec, fmt.Errorf("bind: %d trailing bytes in journal record", len(d.b))
	}
	return rec, nil
}
