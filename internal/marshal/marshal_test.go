package marshal

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hns/internal/simtime"
)

// sampleType is a representative message shape: a struct holding scalars, a
// string, bytes, and a list of structs (like a resource-record answer).
var sampleType = TStruct(
	TUint32,
	TUint64,
	TBool,
	TString,
	TBytes,
	TList(TStruct(TString, TUint32)),
)

func sampleValue() Value {
	return StructV(
		U32(0xdeadbeef),
		U64(1<<40+7),
		BoolV(true),
		Str("fiji.cs.washington.edu"),
		BytesV([]byte{1, 2, 3, 4, 5}),
		ListV(
			StructV(Str("a"), U32(1)),
			StructV(Str("bb"), U32(2)),
		),
	)
}

func reps() []DataRep { return []DataRep{XDR{}, Courier{}, Packed{}} }

func TestRoundTripSample(t *testing.T) {
	for _, r := range reps() {
		t.Run(r.Name(), func(t *testing.T) {
			buf, err := Marshal(r, sampleValue(), sampleType)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Unmarshal(r, buf, sampleType)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got, sampleValue()) {
				t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, sampleValue())
			}
		})
	}
}

func TestRoundTripEmpties(t *testing.T) {
	ty := TStruct(TString, TBytes, TList(TUint32))
	v := StructV(Str(""), BytesV(nil), ListV())
	for _, r := range reps() {
		buf, err := Marshal(r, v, ty)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		got, err := Unmarshal(r, buf, ty)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if got.Items[0].Str != "" || len(got.Items[1].Bytes) != 0 || got.Items[2].Len() != 0 {
			t.Fatalf("%s: empties mangled: %v", r.Name(), got)
		}
	}
}

func TestXDRPadding(t *testing.T) {
	// A 1-byte string must occupy 4 (len) + 4 (padded body) bytes.
	buf, err := Marshal(XDR{}, Str("x"), TString)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 8 {
		t.Fatalf("XDR 1-byte string occupies %d bytes, want 8", len(buf))
	}
}

func TestCourierPadding(t *testing.T) {
	// A 1-byte string must occupy 2 (len) + 2 (padded body) bytes.
	buf, err := Marshal(Courier{}, Str("x"), TString)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 4 {
		t.Fatalf("Courier 1-byte string occupies %d bytes, want 4", len(buf))
	}
}

func TestCourierSequenceLimit(t *testing.T) {
	long := strings.Repeat("a", 70000)
	if _, err := Marshal(Courier{}, Str(long), TString); !errors.Is(err, ErrBadValue) {
		t.Fatalf("Courier must reject >65535-byte strings, got %v", err)
	}
	// XDR has no such limit.
	if _, err := Marshal(XDR{}, Str(long), TString); err != nil {
		t.Fatalf("XDR must accept long strings: %v", err)
	}
}

func TestMarshalRejectsTypeMismatch(t *testing.T) {
	for _, r := range reps() {
		if _, err := Marshal(r, Str("x"), TUint32); !errors.Is(err, ErrTypeMismatch) {
			t.Fatalf("%s: want ErrTypeMismatch, got %v", r.Name(), err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	for _, r := range reps() {
		buf, err := Marshal(r, sampleValue(), sampleType)
		if err != nil {
			t.Fatal(err)
		}
		// Every strict prefix must fail cleanly, never panic.
		for i := 0; i < len(buf); i++ {
			if _, err := Unmarshal(r, buf[:i], sampleType); err == nil {
				t.Fatalf("%s: truncation at %d/%d decoded successfully", r.Name(), i, len(buf))
			}
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	for _, r := range reps() {
		buf, err := Marshal(r, U32(5), TUint32)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, 0xff)
		if _, err := Unmarshal(r, buf, TUint32); err == nil {
			t.Fatalf("%s: trailing bytes accepted", r.Name())
		}
	}
}

func TestDecodeHostileListCount(t *testing.T) {
	// A wire message claiming 2^32-1 list elements with no bodies must
	// fail with truncation, not allocate or hang.
	buf := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, err := (XDR{}).Decode(buf, TList(TUint32)); err == nil {
		t.Fatal("hostile list count accepted")
	}
}

// A Courier count is 16 bits, so two bytes can claim 65535 elements; the
// decoder must not preallocate room for them before finding no bodies.
func TestCourierHostileCountAllocatesLittle(t *testing.T) {
	msg, ty := []byte{0xff, 0xff}, TList(TString)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := (Courier{}).Decode(msg, ty); err == nil {
				b.Fatal("hostile count accepted")
			}
		}
	})
	if n := res.AllocedBytesPerOp(); n >= 4<<10 {
		t.Fatalf("decoding % x allocates %d B/op, want < 4 KiB", msg, n)
	}
}

func TestBoolStrictEncoding(t *testing.T) {
	if _, _, err := (XDR{}).Decode([]byte{0, 0, 0, 2}, TBool); !errors.Is(err, ErrBadValue) {
		t.Fatalf("XDR bool 2 accepted: %v", err)
	}
	if _, _, err := (Courier{}).Decode([]byte{0, 2}, TBool); !errors.Is(err, ErrBadValue) {
		t.Fatalf("Courier bool 2 accepted: %v", err)
	}
}

// Packed's wire format: uvarints, one-byte bools, no padding.
func TestPackedEncoding(t *testing.T) {
	for _, tc := range []struct {
		v    Value
		ty   Type
		want []byte
	}{
		{U32(1), TUint32, []byte{0x01}},
		{U32(200001), TUint32, []byte{0xc1, 0x9a, 0x0c}},
		{U64(1 << 40), TUint64, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20}},
		{BoolV(true), TBool, []byte{0x01}},
		{Str("xdr"), TString, []byte{0x03, 'x', 'd', 'r'}},
		{BytesV(nil), TBytes, []byte{0x00}},
		{ListV(U32(1), U32(300)), TList(TUint32), []byte{0x02, 0x01, 0xac, 0x02}},
		{StructV(Str("a"), BoolV(false)), TStruct(TString, TBool), []byte{0x01, 'a', 0x00}},
	} {
		got, err := Marshal(Packed{}, tc.v, tc.ty)
		if err != nil || !bytes.Equal(got, tc.want) {
			t.Errorf("Packed %v = % x, %v; want % x", tc.v, got, err, tc.want)
		}
	}
}

// Packed's decoder accepts only what Append produces.
func TestPackedDecodeStrict(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		ty   Type
		want error
	}{
		{"overlong uvarint", []byte{0x80, 0x00}, TUint64, ErrBadValue},
		{"overlong zero count", []byte{0x80, 0x00}, TList(TUint32), ErrBadValue},
		{"u32 = 2^32", []byte{0x80, 0x80, 0x80, 0x80, 0x10}, TUint32, ErrBadValue},
		{"uvarint past 64 bits", append(bytes.Repeat([]byte{0xff}, 9), 0x02), TUint64, ErrBadValue},
		{"unterminated uvarint", []byte{0x80, 0x80}, TUint64, ErrTruncated},
		{"bool 2", []byte{0x02}, TBool, ErrBadValue},
		{"truncated string", []byte{0x05, 'a', 'b'}, TString, ErrTruncated},
		{"count above remaining bytes", []byte{0x03, 0x01, 0x02}, TList(TUint32), ErrTruncated},
		{"count above remaining structs", []byte{0x02, 0x01, 'a', 0x00}, TList(TStruct(TString, TBool)), ErrTruncated},
		{"hostile count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, TList(TString), ErrTruncated},
		{"one trailing byte", []byte{0x01, 0x00}, TUint32, ErrBadValue},
	} {
		if _, err := Unmarshal(Packed{}, tc.in, tc.ty); !errors.Is(err, tc.want) {
			t.Errorf("%s: % x decoded with %v, want %v", tc.name, tc.in, err, tc.want)
		}
	}
}

// A list of zero-width elements would carry only its count, so Packed
// refuses one unless it is empty, on both sides of the wire.
func TestPackedZeroWidthList(t *testing.T) {
	ty := TList(TStruct(TStruct()))
	if _, err := Marshal(Packed{}, ListV(StructV(StructV())), ty); !errors.Is(err, ErrBadValue) {
		t.Fatalf("non-empty list of empty structs encoded: %v", err)
	}
	if _, err := Unmarshal(Packed{}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f}, ty); !errors.Is(err, ErrBadValue) {
		t.Fatalf("count of empty structs decoded: %v", err)
	}
	buf, err := Marshal(Packed{}, ListV(), ty)
	if err != nil || !bytes.Equal(buf, []byte{0x00}) {
		t.Fatalf("empty list = % x, %v", buf, err)
	}
	if v, err := Unmarshal(Packed{}, buf, ty); err != nil || v.Len() != 0 {
		t.Fatalf("empty list decoded as %v, %v", v, err)
	}
}

// genValue builds a random value conforming to a random type of bounded
// depth, for property testing.
func genValue(r *rand.Rand, depth int) (Value, Type) {
	kinds := []Kind{KindUint32, KindUint64, KindBool, KindString, KindBytes}
	if depth > 0 {
		kinds = append(kinds, KindList, KindStruct)
	}
	switch kinds[r.Intn(len(kinds))] {
	case KindUint32:
		return U32(r.Uint32()), TUint32
	case KindUint64:
		return U64(r.Uint64()), TUint64
	case KindBool:
		return BoolV(r.Intn(2) == 1), TBool
	case KindString:
		b := make([]byte, r.Intn(40))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return Str(string(b)), TString
	case KindBytes:
		b := make([]byte, r.Intn(40))
		r.Read(b)
		return BytesV(b), TBytes
	case KindList:
		elemV, elemT := genValue(r, depth-1)
		n := r.Intn(4)
		items := make([]Value, 0, n+1)
		items = append(items, elemV)
		for i := 0; i < n; i++ {
			// All elements must share the element type; regenerate until
			// shape-compatible by just reusing scalar kinds.
			v2 := regenOfType(r, elemT, depth-1)
			items = append(items, v2)
		}
		return ListV(items...), TList(elemT)
	default: // struct
		n := 1 + r.Intn(4)
		vals := make([]Value, 0, n)
		types := make([]Type, 0, n)
		for i := 0; i < n; i++ {
			v, ty := genValue(r, depth-1)
			vals = append(vals, v)
			types = append(types, ty)
		}
		return StructV(vals...), TStruct(types...)
	}
}

// regenOfType makes a fresh random value conforming to t.
func regenOfType(r *rand.Rand, t Type, depth int) Value {
	switch t.Kind {
	case KindUint32:
		return U32(r.Uint32())
	case KindUint64:
		return U64(r.Uint64())
	case KindBool:
		return BoolV(r.Intn(2) == 1)
	case KindString:
		b := make([]byte, r.Intn(20))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return Str(string(b))
	case KindBytes:
		b := make([]byte, r.Intn(20))
		r.Read(b)
		return BytesV(b)
	case KindList:
		n := r.Intn(3)
		items := make([]Value, 0, n)
		for i := 0; i < n; i++ {
			items = append(items, regenOfType(r, *t.Elem, depth-1))
		}
		return ListV(items...)
	default:
		vals := make([]Value, 0, len(t.Fields))
		for _, ft := range t.Fields {
			vals = append(vals, regenOfType(r, ft, depth-1))
		}
		return StructV(vals...)
	}
}

// Property: marshal→unmarshal is the identity for every representation and
// every well-typed value, and the decoded value marshals to the same bytes.
func TestRoundTripProperty(t *testing.T) {
	for _, r := range reps() {
		r := r
		t.Run(r.Name(), func(t *testing.T) {
			f := func(seed int64) bool {
				rnd := rand.New(rand.NewSource(seed))
				v, ty := genValue(rnd, 3)
				buf, err := Marshal(r, v, ty)
				if err != nil {
					t.Logf("marshal: %v", err)
					return false
				}
				got, err := Unmarshal(r, buf, ty)
				if err != nil {
					t.Logf("unmarshal: %v", err)
					return false
				}
				again, err := Marshal(r, got, ty)
				return Equal(got, v) && err == nil && bytes.Equal(again, buf)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1987))}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: decoding any random byte soup never panics.
func TestDecodeFuzzProperty(t *testing.T) {
	for _, r := range reps() {
		r := r
		f := func(raw []byte, seed int64) bool {
			rnd := rand.New(rand.NewSource(seed))
			_, ty := genValue(rnd, 2)
			_, _ = Unmarshal(r, raw, ty) // must not panic
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1987))}); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
	}
}

// Property: whatever bytes Packed accepts re-encode to exactly themselves.
// Short byte soup against shallow types, so that some of it is accepted.
func TestPackedAcceptsOnlyCanonical(t *testing.T) {
	accepted := 0
	f := func(raw []byte, seed int64) bool {
		_, ty := genValue(rand.New(rand.NewSource(seed)), 1)
		raw = raw[:min(len(raw), 1+int(uint64(seed)%6))]
		v, err := Unmarshal(Packed{}, raw, ty)
		if err != nil {
			return true
		}
		accepted++
		buf, err := Marshal(Packed{}, v, ty)
		return err == nil && bytes.Equal(buf, raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Fatal("no input was accepted: the property checked nothing")
	}
}

func TestNodeCount(t *testing.T) {
	if got := NodeCount(U32(1)); got != 1 {
		t.Fatalf("scalar NodeCount = %d", got)
	}
	v := StructV(U32(1), ListV(Str("a"), Str("b")))
	// struct + u32 + list + 2 strings = 5
	if got := NodeCount(v); got != 5 {
		t.Fatalf("NodeCount = %d, want 5", got)
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"xdr", "courier", "packed"} {
		r, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if r.Name() != name {
			t.Fatalf("Lookup(%q).Name() = %q", name, r.Name())
		}
	}
	if _, err := Lookup("ndr"); err == nil {
		t.Fatal("Lookup of unregistered rep succeeded")
	}
	names := Names()
	if len(names) < 3 {
		t.Fatalf("Names() = %v, want at least courier, packed and xdr", names)
	}
}

func TestChargeStyles(t *testing.T) {
	v := sampleValue()

	genCost, _ := simtime.Measure(context.Background(), func(ctx context.Context) error {
		ChargeValue(ctx, StyleGenerated, v)
		return nil
	})
	handCost, _ := simtime.Measure(context.Background(), func(ctx context.Context) error {
		ChargeValue(ctx, StyleHand, v)
		return nil
	})
	if genCost <= handCost {
		t.Fatalf("generated (%v) must cost more than hand (%v)", genCost, handCost)
	}

	gen1, _ := simtime.Measure(context.Background(), func(ctx context.Context) error {
		ChargeRecords(ctx, StyleGenerated, 1)
		return nil
	})
	gen6, _ := simtime.Measure(context.Background(), func(ctx context.Context) error {
		ChargeRecords(ctx, StyleGenerated, 6)
		return nil
	})
	if gen6 <= gen1 {
		t.Fatal("marshalling cost must grow with record count")
	}
}

func TestValueAccessors(t *testing.T) {
	if _, err := U32(1).AsString(); err == nil {
		t.Fatal("AsString on uint32 succeeded")
	}
	s, err := Str("x").AsString()
	if err != nil || s != "x" {
		t.Fatalf("AsString = %q, %v", s, err)
	}
	b, err := BoolV(true).AsBool()
	if err != nil || !b {
		t.Fatalf("AsBool = %v, %v", b, err)
	}
	st := StructV(U32(9))
	f, err := st.Field(0)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := f.AsU32(); n != 9 {
		t.Fatalf("Field(0) = %v", f)
	}
	if _, err := st.Field(1); err == nil {
		t.Fatal("out-of-range Field succeeded")
	}
	if _, err := U32(1).Field(0); err == nil {
		t.Fatal("Field on scalar succeeded")
	}
}

func TestValueString(t *testing.T) {
	v := StructV(U32(1), Str("a"), ListV(BoolV(true)), BytesV([]byte{0xab}))
	got := v.String()
	for _, want := range []string{"1", `"a"`, "true", "0xab"} {
		if !strings.Contains(got, want) {
			t.Fatalf("String() = %q, missing %q", got, want)
		}
	}
}
