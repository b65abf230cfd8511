package marshal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Packed is the data representation the Raw suite selects. The Raw suite is
// spoken only among this repository's own daemons, so nothing about it has
// to match a foreign system: every uint32, uint64, length and count is a
// uvarint, a bool is one byte, and a struct is its fields concatenated with
// no alignment anywhere.
//
// The decoder is strict: it accepts only what Append produces, so accepted
// bytes re-encode to themselves. It refuses overlong uvarints, uint32
// values past 2³²−1, bools other than 0 or 1, and lengths or counts the
// remaining bytes cannot hold. A list whose element type encodes in zero
// bytes (a struct with no fields, or only such structs) would carry nothing
// but its count, so any count could claim any number of values; Packed
// refuses such a list unless it is empty, encoding and decoding alike.
type Packed struct{}

// Name implements DataRep.
func (Packed) Name() string { return "packed" }

// Append implements DataRep.
func (p Packed) Append(buf []byte, v Value, t Type) ([]byte, error) {
	if err := Check(v, t); err != nil {
		return nil, err
	}
	return p.append(buf, v, t)
}

func (p Packed) append(buf []byte, v Value, t Type) ([]byte, error) {
	switch t.Kind {
	case KindUint32:
		return binary.AppendUvarint(buf, uint64(uint32(v.Num))), nil
	case KindUint64:
		return binary.AppendUvarint(buf, v.Num), nil
	case KindBool:
		return append(buf, byte(v.Num&1)), nil
	case KindString:
		return append(binary.AppendUvarint(buf, uint64(len(v.Str))), v.Str...), nil
	case KindBytes:
		return append(binary.AppendUvarint(buf, uint64(len(v.Bytes))), v.Bytes...), nil
	case KindList:
		if len(v.Items) > 0 && packedWidth(*t.Elem) == 0 {
			return nil, fmt.Errorf("%w: non-empty list of zero-width elements", ErrBadValue)
		}
		buf = binary.AppendUvarint(buf, uint64(len(v.Items)))
		var err error
		for _, it := range v.Items {
			if buf, err = p.append(buf, it, *t.Elem); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case KindStruct:
		var err error
		for i, it := range v.Items {
			if buf, err = p.append(buf, it, t.Fields[i]); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: kind %s", ErrBadValue, t.Kind)
	}
}

// Decode implements DataRep.
func (p Packed) Decode(buf []byte, t Type) (Value, []byte, error) {
	switch t.Kind {
	case KindUint32:
		n, rest, err := Uvarint(buf, math.MaxUint32)
		if err != nil {
			return Value{}, nil, err
		}
		return U32(uint32(n)), rest, nil
	case KindUint64:
		n, rest, err := Uvarint(buf, math.MaxUint64)
		if err != nil {
			return Value{}, nil, err
		}
		return U64(n), rest, nil
	case KindBool:
		if len(buf) < 1 {
			return Value{}, nil, ErrTruncated
		}
		if buf[0] > 1 {
			return Value{}, nil, fmt.Errorf("%w: bool encoding %d", ErrBadValue, buf[0])
		}
		return BoolV(buf[0] == 1), buf[1:], nil
	case KindString:
		b, rest, err := decodeCounted(buf)
		if err != nil {
			return Value{}, nil, err
		}
		return Str(string(b)), rest, nil
	case KindBytes:
		b, rest, err := decodeCounted(buf)
		if err != nil {
			return Value{}, nil, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return BytesV(out), rest, nil
	case KindList:
		n, rest, err := Uvarint(buf, math.MaxUint64)
		if err != nil {
			return Value{}, nil, err
		}
		buf = rest
		if n > 0 {
			// Every element takes at least w bytes, so the remaining bytes
			// bound both the count and the preallocation.
			w := packedWidth(*t.Elem)
			if w == 0 {
				return Value{}, nil, fmt.Errorf("%w: non-empty list of zero-width elements", ErrBadValue)
			}
			if n > uint64(len(buf)/w) {
				return Value{}, nil, ErrTruncated
			}
		}
		items := make([]Value, 0, n)
		for i := uint64(0); i < n; i++ {
			var it Value
			if it, buf, err = p.Decode(buf, *t.Elem); err != nil {
				return Value{}, nil, fmt.Errorf("list[%d]: %w", i, err)
			}
			items = append(items, it)
		}
		return ListV(items...), buf, nil
	case KindStruct:
		items := make([]Value, 0, len(t.Fields))
		for i, ft := range t.Fields {
			var (
				it  Value
				err error
			)
			if it, buf, err = p.Decode(buf, ft); err != nil {
				return Value{}, nil, fmt.Errorf("field[%d]: %w", i, err)
			}
			items = append(items, it)
		}
		return StructV(items...), buf, nil
	default:
		return Value{}, nil, fmt.Errorf("%w: kind %s", ErrBadValue, t.Kind)
	}
}

// Uvarint reads one uvarint no greater than max off the front of buf and
// returns it with the bytes after it. It is the one strict reader of every
// uvarint this repository's own formats write: it refuses any but the
// shortest encoding of a value (a final byte of zero after others adds
// nothing but length), so accepted bytes re-encode to themselves.
func Uvarint(buf []byte, max uint64) (uint64, []byte, error) {
	n, k := binary.Uvarint(buf)
	switch {
	case k == 0:
		return 0, nil, ErrTruncated
	case k < 0:
		return 0, nil, fmt.Errorf("%w: uvarint overflows 64 bits", ErrBadValue)
	case k > 1 && buf[k-1] == 0:
		return 0, nil, fmt.Errorf("%w: overlong uvarint", ErrBadValue)
	case n > max:
		return 0, nil, fmt.Errorf("%w: %d exceeds %d", ErrBadValue, n, max)
	}
	return n, buf[k:], nil
}

// decodeCounted reads a uvarint length and that many bytes.
func decodeCounted(buf []byte) ([]byte, []byte, error) {
	n, rest, err := Uvarint(buf, math.MaxUint64)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, ErrTruncated
	}
	return rest[:n], rest[n:], nil
}

// packedWidth is the fewest bytes Packed encodes a value of type t in: one
// for every scalar, string, bytes and list, the sum of its fields for a
// struct.
func packedWidth(t Type) int {
	if t.Kind != KindStruct {
		return 1
	}
	w := 0
	for _, f := range t.Fields {
		w += packedWidth(f)
	}
	return w
}
