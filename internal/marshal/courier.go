package marshal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Courier is the Xerox-style data representation: big-endian 16-bit words,
// every item padded to a 2-byte boundary, 16-bit counted sequences. It is
// the representation the Courier protocol suite (and thus the Clearinghouse
// world) selects.
//
// The 16-bit counts impose genuinely different limits from XDR — strings,
// byte sequences, and lists are capped at 65535 elements — which is exactly
// the kind of heterogeneity the HRPC mix-and-match design has to absorb.
type Courier struct{}

// Name implements DataRep.
func (Courier) Name() string { return "courier" }

// Append implements DataRep.
func (c Courier) Append(buf []byte, v Value, t Type) ([]byte, error) {
	if err := Check(v, t); err != nil {
		return nil, err
	}
	return c.append(buf, v, t)
}

func (c Courier) append(buf []byte, v Value, t Type) ([]byte, error) {
	switch t.Kind {
	case KindUint32:
		// LONG CARDINAL: two 16-bit words, high word first.
		return binary.BigEndian.AppendUint32(buf, uint32(v.Num)), nil
	case KindUint64:
		return binary.BigEndian.AppendUint64(buf, v.Num), nil
	case KindBool:
		return binary.BigEndian.AppendUint16(buf, uint16(v.Num&1)), nil
	case KindString:
		return c.appendSeq(buf, []byte(v.Str))
	case KindBytes:
		return c.appendSeq(buf, v.Bytes)
	case KindList:
		if len(v.Items) > math.MaxUint16 {
			return nil, fmt.Errorf("%w: courier sequence longer than 65535", ErrBadValue)
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(v.Items)))
		var err error
		for _, it := range v.Items {
			if buf, err = c.append(buf, it, *t.Elem); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case KindStruct:
		var err error
		for i, it := range v.Items {
			if buf, err = c.append(buf, it, t.Fields[i]); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: kind %s", ErrBadValue, t.Kind)
	}
}

func (Courier) appendSeq(buf, b []byte) ([]byte, error) {
	if len(b) > math.MaxUint16 {
		return nil, fmt.Errorf("%w: courier sequence longer than 65535", ErrBadValue)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b)))
	buf = append(buf, b...)
	if len(b)%2 == 1 {
		buf = append(buf, 0)
	}
	return buf, nil
}

// Decode implements DataRep.
func (c Courier) Decode(buf []byte, t Type) (Value, []byte, error) {
	switch t.Kind {
	case KindUint32:
		if len(buf) < 4 {
			return Value{}, nil, ErrTruncated
		}
		return U32(binary.BigEndian.Uint32(buf)), buf[4:], nil
	case KindUint64:
		if len(buf) < 8 {
			return Value{}, nil, ErrTruncated
		}
		return U64(binary.BigEndian.Uint64(buf)), buf[8:], nil
	case KindBool:
		if len(buf) < 2 {
			return Value{}, nil, ErrTruncated
		}
		n := binary.BigEndian.Uint16(buf)
		if n > 1 {
			return Value{}, nil, fmt.Errorf("%w: bool encoding %d", ErrBadValue, n)
		}
		return BoolV(n == 1), buf[2:], nil
	case KindString:
		b, rest, err := c.decodeSeq(buf)
		if err != nil {
			return Value{}, nil, err
		}
		return Str(string(b)), rest, nil
	case KindBytes:
		b, rest, err := c.decodeSeq(buf)
		if err != nil {
			return Value{}, nil, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return BytesV(out), rest, nil
	case KindList:
		if len(buf) < 2 {
			return Value{}, nil, ErrTruncated
		}
		n := binary.BigEndian.Uint16(buf)
		buf = buf[2:]
		// Bound the preallocation by the remaining bytes so a hostile
		// count cannot force a large allocation.
		items := make([]Value, 0, min(int(n), len(buf)))
		for i := uint16(0); i < n; i++ {
			var (
				it  Value
				err error
			)
			if it, buf, err = c.Decode(buf, *t.Elem); err != nil {
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
			if it, buf, err = c.Decode(buf, ft); err != nil {
				return Value{}, nil, fmt.Errorf("field[%d]: %w", i, err)
			}
			items = append(items, it)
		}
		return StructV(items...), buf, nil
	default:
		return Value{}, nil, fmt.Errorf("%w: kind %s", ErrBadValue, t.Kind)
	}
}

func (Courier) decodeSeq(buf []byte) ([]byte, []byte, error) {
	if len(buf) < 2 {
		return nil, nil, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	padded := n + n%2
	if padded > len(buf) {
		return nil, nil, ErrTruncated
	}
	return buf[:n], buf[padded:], nil
}
