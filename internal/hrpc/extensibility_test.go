package hrpc

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// The point of the component factoring is that a new system type can bring
// its own wire conventions: this test integrates a complete foreign
// protocol family — a little-endian data representation ("ndr-le",
// DCE-flavoured) and a trivial control protocol ("tagctl") — through the
// public registries alone, then runs calls over the mixed stack. No
// framework code changes.

// ndrLE is a little-endian data representation.
type ndrLE struct{}

func (ndrLE) Name() string { return "ndr-le" }

func (n ndrLE) Append(buf []byte, v marshal.Value, t marshal.Type) ([]byte, error) {
	if err := marshal.Check(v, t); err != nil {
		return nil, err
	}
	return n.append(buf, v, t)
}

func (n ndrLE) append(buf []byte, v marshal.Value, t marshal.Type) ([]byte, error) {
	switch t.Kind {
	case marshal.KindUint32:
		return binary.LittleEndian.AppendUint32(buf, uint32(v.Num)), nil
	case marshal.KindUint64:
		return binary.LittleEndian.AppendUint64(buf, v.Num), nil
	case marshal.KindBool:
		if v.Num != 0 {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case marshal.KindString:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Str)))
		return append(buf, v.Str...), nil
	case marshal.KindBytes:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Bytes)))
		return append(buf, v.Bytes...), nil
	case marshal.KindList:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Items)))
		var err error
		for _, it := range v.Items {
			if buf, err = n.append(buf, it, *t.Elem); err != nil {
				return nil, err
			}
		}
		return buf, nil
	case marshal.KindStruct:
		var err error
		for i, it := range v.Items {
			if buf, err = n.append(buf, it, t.Fields[i]); err != nil {
				return nil, err
			}
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("ndr-le: kind %v", t.Kind)
	}
}

func (n ndrLE) Decode(buf []byte, t marshal.Type) (marshal.Value, []byte, error) {
	switch t.Kind {
	case marshal.KindUint32:
		if len(buf) < 4 {
			return marshal.Value{}, nil, marshal.ErrTruncated
		}
		return marshal.U32(binary.LittleEndian.Uint32(buf)), buf[4:], nil
	case marshal.KindUint64:
		if len(buf) < 8 {
			return marshal.Value{}, nil, marshal.ErrTruncated
		}
		return marshal.U64(binary.LittleEndian.Uint64(buf)), buf[8:], nil
	case marshal.KindBool:
		if len(buf) < 1 {
			return marshal.Value{}, nil, marshal.ErrTruncated
		}
		return marshal.BoolV(buf[0] != 0), buf[1:], nil
	case marshal.KindString, marshal.KindBytes:
		if len(buf) < 4 {
			return marshal.Value{}, nil, marshal.ErrTruncated
		}
		ln := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if ln > len(buf) {
			return marshal.Value{}, nil, marshal.ErrTruncated
		}
		if t.Kind == marshal.KindString {
			return marshal.Str(string(buf[:ln])), buf[ln:], nil
		}
		return marshal.BytesV(append([]byte(nil), buf[:ln]...)), buf[ln:], nil
	case marshal.KindList:
		if len(buf) < 4 {
			return marshal.Value{}, nil, marshal.ErrTruncated
		}
		count := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if count > len(buf)+1 {
			return marshal.Value{}, nil, marshal.ErrTruncated
		}
		items := make([]marshal.Value, 0, count)
		for i := 0; i < count; i++ {
			var (
				it  marshal.Value
				err error
			)
			if it, buf, err = n.Decode(buf, *t.Elem); err != nil {
				return marshal.Value{}, nil, err
			}
			items = append(items, it)
		}
		return marshal.ListV(items...), buf, nil
	case marshal.KindStruct:
		items := make([]marshal.Value, 0, len(t.Fields))
		for _, ft := range t.Fields {
			var (
				it  marshal.Value
				err error
			)
			if it, buf, err = n.Decode(buf, ft); err != nil {
				return marshal.Value{}, nil, err
			}
			items = append(items, it)
		}
		return marshal.StructV(items...), buf, nil
	default:
		return marshal.Value{}, nil, fmt.Errorf("ndr-le: kind %v", t.Kind)
	}
}

// tagCtl is a minimal foreign control protocol: one tag byte, then the raw
// header fields little-endian.
type tagCtl struct{}

func (tagCtl) Name() string { return "tagctl" }

func (tagCtl) AppendCall(buf []byte, h CallHeader, args []byte) ([]byte, error) {
	buf = append(buf, 0xC1)
	for _, w := range []uint32{h.XID, h.Program, h.Version, h.Procedure} {
		buf = binary.LittleEndian.AppendUint32(buf, w)
	}
	return append(buf, args...), nil
}

func (tagCtl) DecodeCall(frame []byte) (CallHeader, []byte, error) {
	if len(frame) < 17 || frame[0] != 0xC1 {
		return CallHeader{}, nil, ErrBadFrame
	}
	w := func(i int) uint32 { return binary.LittleEndian.Uint32(frame[1+4*i:]) }
	return CallHeader{XID: w(0), Program: w(1), Version: w(2), Procedure: w(3)}, frame[17:], nil
}

func (tagCtl) AppendReply(buf []byte, h ReplyHeader, results []byte) ([]byte, error) {
	tag := byte(0xC2)
	if h.Code != ReplyOK {
		tag = 0xC3
	}
	buf = append(buf, tag)
	buf = binary.LittleEndian.AppendUint32(buf, h.XID)
	if h.Code != ReplyOK {
		return append(buf, h.Err...), nil
	}
	return append(buf, results...), nil
}

func (tagCtl) DecodeReply(frame []byte) (ReplyHeader, []byte, error) {
	if len(frame) < 5 {
		return ReplyHeader{}, nil, ErrBadFrame
	}
	h := ReplyHeader{XID: binary.LittleEndian.Uint32(frame[1:])}
	switch frame[0] {
	case 0xC2:
		return h, frame[5:], nil
	case 0xC3:
		h.Code, h.Err = ReplyFault, string(frame[5:])
		return h, nil, nil
	default:
		return ReplyHeader{}, nil, ErrBadFrame
	}
}

func (tagCtl) Overhead() time.Duration { return simtime.CtlRaw }

func TestForeignProtocolFamilyIntegrates(t *testing.T) {
	// Registries are global; guard against double registration across
	// test runs in the same binary.
	if _, err := marshal.Lookup("ndr-le"); err != nil {
		marshal.Register(ndrLE{})
	}
	if _, err := LookupControl("tagctl"); err != nil {
		RegisterControl(tagCtl{})
	}

	net := transport.NewNetwork()
	s := NewServer("foreign", 7200, 1)
	s.Register(echoProc, func(ctx context.Context, args marshal.Value) (marshal.Value, error) {
		return args, nil
	})
	// Mix and match: the foreign data rep and control protocol over the
	// stock UDP transport.
	suite := Suite{Transport: "udp", DataRep: "ndr-le", Control: "tagctl"}
	ln, b, err := Serve(net, s, suite, "vms", "vms:svc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	c := NewClient(net)
	defer c.Close()
	ret, err := c.Call(context.Background(), b, echoProc,
		marshal.StructV(marshal.Str("спутник"))) // non-ASCII survives too
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ret.Items[0].AsString(); got != "спутник" {
		t.Fatalf("echo = %q", got)
	}

	// The same server simultaneously speaks a stock suite — one
	// implementation, many wire personalities, now including a foreign one.
	ln2, b2, err := Serve(net, s, SuiteSunRPC, "vms", "vms:svc-sun")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	if _, err := c.Call(context.Background(), b2, echoProc,
		marshal.StructV(marshal.Str("x"))); err != nil {
		t.Fatal(err)
	}
}
