package marshal

import (
	"encoding/binary"
	"fmt"
	"math"
)

// XDR is the Sun-style external data representation: big-endian, every item
// padded to a 4-byte boundary, counted strings and arrays. It is the
// representation the Sun RPC protocol suite selects.
type XDR struct{}

// Name implements DataRep.
func (XDR) Name() string { return "xdr" }

// Append implements DataRep.
func (x XDR) Append(buf []byte, v Value, t Type) ([]byte, error) {
	if err := Check(v, t); err != nil {
		return nil, err
	}
	return x.append(buf, v, t)
}

func (x XDR) append(buf []byte, v Value, t Type) ([]byte, error) {
	switch t.Kind {
	case KindUint32:
		return binary.BigEndian.AppendUint32(buf, uint32(v.Num)), nil
	case KindUint64:
		return binary.BigEndian.AppendUint64(buf, v.Num), nil
	case KindBool:
		return binary.BigEndian.AppendUint32(buf, uint32(v.Num&1)), nil
	case KindString:
		return x.appendOpaque(buf, []byte(v.Str))
	case KindBytes:
		return x.appendOpaque(buf, v.Bytes)
	case KindList:
		if len(v.Items) > math.MaxUint32 {
			return nil, fmt.Errorf("%w: list too long", ErrBadValue)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Items)))
		var err error
		for _, it := range v.Items {
			if buf, err = x.append(buf, it, *t.Elem); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case KindStruct:
		var err error
		for i, it := range v.Items {
			if buf, err = x.append(buf, it, t.Fields[i]); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("%w: kind %s", ErrBadValue, t.Kind)
	}
}

func (XDR) appendOpaque(buf, b []byte) ([]byte, error) {
	if len(b) > math.MaxUint32 {
		return nil, fmt.Errorf("%w: opaque too long", ErrBadValue)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	buf = append(buf, b...)
	for pad := (4 - len(b)%4) % 4; pad > 0; pad-- {
		buf = append(buf, 0)
	}
	return buf, nil
}

// Decode implements DataRep.
func (x XDR) Decode(buf []byte, t Type) (Value, []byte, error) {
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
		if len(buf) < 4 {
			return Value{}, nil, ErrTruncated
		}
		n := binary.BigEndian.Uint32(buf)
		if n > 1 {
			return Value{}, nil, fmt.Errorf("%w: bool encoding %d", ErrBadValue, n)
		}
		return BoolV(n == 1), buf[4:], nil
	case KindString:
		b, rest, err := x.decodeOpaque(buf)
		if err != nil {
			return Value{}, nil, err
		}
		return Str(string(b)), rest, nil
	case KindBytes:
		b, rest, err := x.decodeOpaque(buf)
		if err != nil {
			return Value{}, nil, err
		}
		out := make([]byte, len(b))
		copy(out, b)
		return BytesV(out), rest, nil
	case KindList:
		if len(buf) < 4 {
			return Value{}, nil, ErrTruncated
		}
		n := binary.BigEndian.Uint32(buf)
		buf = buf[4:]
		// Bound the preallocation by the remaining bytes so a hostile
		// count cannot force a huge allocation.
		capHint := int(n)
		if capHint > len(buf) {
			capHint = len(buf)
		}
		items := make([]Value, 0, capHint)
		for i := uint32(0); i < n; i++ {
			var (
				it  Value
				err error
			)
			if it, buf, err = x.Decode(buf, *t.Elem); err != nil {
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
			if it, buf, err = x.Decode(buf, ft); err != nil {
				return Value{}, nil, fmt.Errorf("field[%d]: %w", i, err)
			}
			items = append(items, it)
		}
		return StructV(items...), buf, nil
	default:
		return Value{}, nil, fmt.Errorf("%w: kind %s", ErrBadValue, t.Kind)
	}
}

func (XDR) decodeOpaque(buf []byte) ([]byte, []byte, error) {
	if len(buf) < 4 {
		return nil, nil, ErrTruncated
	}
	n := binary.BigEndian.Uint32(buf)
	buf = buf[4:]
	if uint64(n) > uint64(len(buf)) {
		return nil, nil, ErrTruncated
	}
	padded := int(n) + (4-int(n)%4)%4
	if padded > len(buf) {
		return nil, nil, ErrTruncated
	}
	return buf[:n], buf[padded:], nil
}
