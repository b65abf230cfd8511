// Package marshal implements the "data representation" component of the
// HRPC factoring: the rules that determine how data values are marshalled
// on the wire.
//
// HRPC deliberately does not use self-describing packages (the paper
// contrasts this with Eden); instead both ends of a call agree on the shape
// of each message through the interface description, and the data
// representation only encodes values. We model that with an explicit Type
// descriptor that the decoder is given, mirroring the stub compiler's
// generated knowledge.
//
// Two wire formats match the RPC systems the HCS prototype emulated, and a
// third serves the suite only this repository's daemons speak:
//
//   - XDR: Sun-style, 4-byte alignment, big-endian (used by the Sun RPC
//     control protocol).
//   - Courier: Xerox-style, 2-byte words (used by the Courier control
//     protocol when talking to Clearinghouse-world services).
//   - Packed: uvarint integers and counts, no padding (used by the Raw
//     suite).
//
// The package also prices marshalling work in simulated time. The paper
// found (Table 3.2) that its stub-compiler generated marshalling routines
// were dramatically more expensive than the hand-coded standard BIND
// library routines; Style captures that distinction so callers can charge
// the appropriate cost. A generated stub is priced per value node of the
// message's declared Type (ChargeValue), which is the 1987 message where
// it differs from today's wire; only list lengths come from the live
// value.
package marshal

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the value kinds the HRPC interface description language
// supports.
type Kind uint8

// The supported kinds.
const (
	KindInvalid Kind = iota
	KindUint32
	KindUint64
	KindBool
	KindString
	KindBytes
	KindList
	KindStruct
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindUint32:
		return "uint32"
	case KindUint64:
		return "uint64"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindList:
		return "list"
	case KindStruct:
		return "struct"
	default:
		return "invalid"
	}
}

// Value is one node of a message tree. Exactly the fields relevant to Kind
// are meaningful; the rest stay zero.
type Value struct {
	Kind  Kind
	Num   uint64  // KindUint32, KindUint64, KindBool (0/1)
	Str   string  // KindString
	Bytes []byte  // KindBytes
	Items []Value // KindList elements or KindStruct fields, in order
}

// Constructors. These keep call sites terse: marshal.Str("fiji"),
// marshal.U32(7), marshal.StructV(...).

// U32 builds a uint32 value.
func U32(v uint32) Value { return Value{Kind: KindUint32, Num: uint64(v)} }

// U64 builds a uint64 value.
func U64(v uint64) Value { return Value{Kind: KindUint64, Num: v} }

// BoolV builds a bool value.
func BoolV(v bool) Value {
	n := uint64(0)
	if v {
		n = 1
	}
	return Value{Kind: KindBool, Num: n}
}

// Str builds a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// BytesV builds a bytes value.
func BytesV(b []byte) Value { return Value{Kind: KindBytes, Bytes: b} }

// ListV builds a list value.
func ListV(items ...Value) Value { return Value{Kind: KindList, Items: items} }

// StructV builds a struct value with fields in declaration order.
func StructV(fields ...Value) Value { return Value{Kind: KindStruct, Items: fields} }

// Accessors with shape checking. They return an error rather than panicking
// because the values may have come off the wire.

// AsU32 extracts a uint32.
func (v Value) AsU32() (uint32, error) {
	if v.Kind != KindUint32 {
		return 0, fmt.Errorf("marshal: value is %s, want uint32", v.Kind)
	}
	return uint32(v.Num), nil
}

// AsBool extracts a bool.
func (v Value) AsBool() (bool, error) {
	if v.Kind != KindBool {
		return false, fmt.Errorf("marshal: value is %s, want bool", v.Kind)
	}
	return v.Num != 0, nil
}

// AsString extracts a string.
func (v Value) AsString() (string, error) {
	if v.Kind != KindString {
		return "", fmt.Errorf("marshal: value is %s, want string", v.Kind)
	}
	return v.Str, nil
}

// AsBytes extracts a byte slice.
func (v Value) AsBytes() ([]byte, error) {
	if v.Kind != KindBytes {
		return nil, fmt.Errorf("marshal: value is %s, want bytes", v.Kind)
	}
	return v.Bytes, nil
}

// Len returns the number of list elements or struct fields.
func (v Value) Len() int { return len(v.Items) }

// String renders a value for traces and error messages.
func (v Value) String() string {
	var b strings.Builder
	writeValue(&b, v)
	return b.String()
}

func writeValue(b *strings.Builder, v Value) {
	switch v.Kind {
	case KindUint32, KindUint64:
		b.WriteString(strconv.FormatUint(v.Num, 10))
	case KindBool:
		b.WriteString(strconv.FormatBool(v.Num != 0))
	case KindString:
		b.WriteString(strconv.Quote(v.Str))
	case KindBytes:
		fmt.Fprintf(b, "0x%x", v.Bytes)
	case KindList:
		b.WriteByte('[')
		for i, it := range v.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			writeValue(b, it)
		}
		b.WriteByte(']')
	case KindStruct:
		b.WriteByte('{')
		for i, it := range v.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			writeValue(b, it)
		}
		b.WriteByte('}')
	default:
		b.WriteString("<invalid>")
	}
}

// Type describes the shape of a value, standing in for the stub compiler's
// knowledge of an IDL declaration. Decoders require one because the wire
// formats are not self-describing.
type Type struct {
	Kind   Kind
	Elem   *Type  // KindList element type
	Fields []Type // KindStruct field types, in order
}

// Convenience type constructors.
var (
	TUint32 = Type{Kind: KindUint32}
	TBool   = Type{Kind: KindBool}
	TString = Type{Kind: KindString}
	TBytes  = Type{Kind: KindBytes}
)

// TList builds a list type.
func TList(elem Type) Type { return Type{Kind: KindList, Elem: &elem} }

// TStruct builds a struct type.
func TStruct(fields ...Type) Type { return Type{Kind: KindStruct, Fields: fields} }

// ErrTypeMismatch reports a value that does not conform to its declared
// type.
var ErrTypeMismatch = errors.New("marshal: value does not match type")

// Check verifies that v conforms to t.
func Check(v Value, t Type) error {
	if v.Kind != t.Kind {
		return fmt.Errorf("%w: have %s, want %s", ErrTypeMismatch, v.Kind, t.Kind)
	}
	switch t.Kind {
	case KindList:
		if t.Elem == nil {
			return fmt.Errorf("%w: list type missing element type", ErrTypeMismatch)
		}
		for i, it := range v.Items {
			if err := Check(it, *t.Elem); err != nil {
				return fmt.Errorf("list[%d]: %w", i, err)
			}
		}
	case KindStruct:
		if len(v.Items) != len(t.Fields) {
			return fmt.Errorf("%w: struct has %d fields, want %d", ErrTypeMismatch, len(v.Items), len(t.Fields))
		}
		for i, it := range v.Items {
			if err := Check(it, t.Fields[i]); err != nil {
				return fmt.Errorf("field[%d]: %w", i, err)
			}
		}
	}
	return nil
}
