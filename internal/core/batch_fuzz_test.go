package core

import (
	"testing"

	"hns/internal/hrpc"
	"hns/internal/marshal"
)

// FuzzFindBatchDecode hammers the FindNSMBatch reply decoder with
// arbitrary bytes: whatever a peer sends, decode must return an error or
// a result — never panic, never index out of range.
func FuzzFindBatchDecode(f *testing.F) {
	rep, err := marshal.Lookup(hrpc.SuiteRaw.DataRep)
	if err != nil {
		f.Fatal(err)
	}
	// Seed with a well-formed two-slot reply, {errText, binding, keep} a
	// slot (one success kept for ten minutes, one per-name error), and
	// some near-misses.
	good := marshal.StructV(marshal.ListV(
		marshal.StructV(marshal.Str(""), nsmBindingValue(hrpc.Binding{
			Addr: "nsm:1", Transport: "udp",
			DataRep: "xdr", Control: "sunrpc", Program: 200100, Version: 10,
		}), marshal.U32(600)),
		marshal.StructV(marshal.Str("no such context"), nsmBindingValue(hrpc.Binding{}), marshal.U32(0)),
	))
	enc, err := rep.Append(nil, good, procFindNSMBatch.Ret)
	if err != nil {
		f.Fatalf("encode seed reply: %v", err)
	}
	f.Add(enc)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ret, err := marshal.Unmarshal(rep, data, procFindNSMBatch.Ret)
		if err != nil {
			return // rejected at the wire layer: fine
		}
		// Shape-valid bytes may still disagree with the question count or
		// carry a mangled binding; decode must fail soft.
		res, err := decodeFindResults(ret, 2)
		if err == nil && len(res) != 2 {
			t.Fatalf("decode returned %d results for 2 queries without error", len(res))
		}
	})
}
