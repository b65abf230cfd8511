package bind

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/transport"
)

// Records on BIND's HRPC interface travel as answer-set runs (journal.go).
// The tests below pin what that costs on a real socket for the load
// harness's record shapes, and hold the codec to a lossless, canonical
// round trip.

// tenantFollow is the chain a cold FindNSM asks the meta-BIND to walk.
var tenantFollow = []FollowStep{
	{Key: "ns", Prefix: "hostaddress.", Suffix: ".qc.hns"},
	{Key: "nsm", Suffix: ".nsm.hns"},
}

// tenantRecords are one tenant's meta records as the load harness
// registers them: a name service, a context on it, the (hostaddress,
// name service) → NSM mapping and the NSM's own four records.
func tenantRecords(id, port string) []RR {
	nsm := "nsm-" + id + ".nsm.hns"
	return []RR{
		HNSMeta("ns-"+id+".ns.hns", "type=bind", 600),
		HNSMeta("t"+id+".ctx.hns", "ns=ns-"+id, 600),
		HNSMeta("hostaddress.ns-"+id+".qc.hns", "nsm=nsm-"+id, 600),
		HNSMeta(nsm, "host=june.cs.washington.edu", 600),
		HNSMeta(nsm, "hostctx=hostaddr-bind", 600),
		HNSMeta(nsm, "port="+port, 600),
		HNSMeta(nsm, "suite=udp-net,xdr,sunrpc", 600),
	}
}

// tenantZone serves a meta zone of n benchmark-shaped tenants, plus the
// hot contexts h0 and h100, over HRPC at addr in suite.
func tenantZone(tb testing.TB, n int, suite hrpc.Suite, addr string) (*HRPCClient, []string) {
	tb.Helper()
	_, c, ids := tenantServer(tb, n, suite, addr)
	return c, ids
}

// tenantServer is tenantZone, with the server.
func tenantServer(tb testing.TB, n int, suite hrpc.Suite, addr string) (*Server, *HRPCClient, []string) {
	tb.Helper()
	net := transport.NewNetwork()
	s := NewServer("tahoma")
	z, err := NewZone("hns", true)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rrs := []RR{HNSMeta("h0.ctx.hns", "ns=bind-cs", 600), HNSMeta("h100.ctx.hns", "ns=bind-cs", 600)}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("%05d-%04x", i, rng.Intn(1<<16))
		rrs = append(rrs, tenantRecords(ids[i], "40321")...)
	}
	if err := s.LoadRecords(rrs); err != nil {
		tb.Fatal(err)
	}
	ln, b, err := hrpc.Serve(net, s.HRPCServer(), suite, "tahoma", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	hc := hrpc.NewClient(net)
	tb.Cleanup(func() { hc.Close() })
	return s, NewHRPCClient(hc, b), ids
}

func tcpNetBytes(dir string) int64 {
	return metrics.Default().Counter(metrics.Labels("transport_bytes_total",
		"transport", "tcp-net", "dir", dir)).Value()
}

// TestHRPCWireBytes is the tier-1 twin of the benchmark's bytes_per_op
// for the exchanges a FindNSM and a flip make with the meta-BIND over a
// real socket: a cold chained lookup, a warm-context refetch and the two
// updates of a flip. Each is 6 bytes of call header plus arguments out
// and 2 bytes of reply header plus results back, both in the Raw suite's
// packed representation. No answer spells an owner its asker holds: the
// chain's three sets leave out the context, the (query class, name
// service) name and the NSM name, 73 B, for 2 B of list framing.
func TestHRPCWireBytes(t *testing.T) {
	c, ids := tenantZone(t, 1, hrpc.SuiteRawNet, "127.0.0.1:0")
	ctx := context.Background()
	if _, err := c.Serial(ctx, "hns"); err != nil { // dial outside the measurement
		t.Fatal(err)
	}
	update := func(op uint32, name, ns string) func() error {
		return func() error {
			_, err := c.Update(ctx, "hns", op, HNSMeta(name, "ns="+ns, 600))
			return err
		}
	}
	for _, tc := range []struct {
		name   string
		call   func() error
		tx, rx int64
	}{
		{"chain", func() error {
			head, tails, err := c.LookupChain(ctx, "t"+ids[0]+".ctx.hns", TypeHNSMeta, tenantFollow)
			if err == nil && (len(head) != 1 || len(tails) != 2 || len(tails[1]) != 4) {
				err = fmt.Errorf("chain = %v, %v", head, tails)
			}
			return err
		}, 68, 153},
		{"lookup", func() error {
			rrs, err := c.Lookup(ctx, "h0.ctx.hns", TypeHNSMeta)
			if err == nil && len(rrs) != 1 {
				err = fmt.Errorf("lookup = %v", rrs)
			}
			return err
		}, 20, 23},
		{"update h0 add", update(UpdateAdd, "h0.ctx.hns", "bind-cs-b"), 42, 4},
		{"update h0 remove", update(UpdateRemove, "h0.ctx.hns", "bind-cs"), 40, 4},
		{"update h100 add", update(UpdateAdd, "h100.ctx.hns", "bind-cs-b"), 44, 4},
		{"update h100 remove", update(UpdateRemove, "h100.ctx.hns", "bind-cs"), 42, 4},
	} {
		tx0, rx0 := tcpNetBytes("tx"), tcpNetBytes("rx")
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tx, rx := tcpNetBytes("tx")-tx0, tcpNetBytes("rx")-rx0; tx != tc.tx || rx != tc.rx {
			t.Errorf("%s moved %d B out and %d B back, want %d and %d", tc.name, tx, rx, tc.tx, tc.rx)
		}
	}
}

// goldenServer serves zone hns holding three kinds of owner: one mixing
// types, one whose records carry two TTLs, and one whose records were
// added out of (type, data) order, each naming the next by "next=".
func goldenServer(tb testing.TB) (*Server, *Zone) {
	tb.Helper()
	s := NewServer("tahoma")
	z, err := NewZone("hns", true)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		tb.Fatal(err)
	}
	for _, rr := range []RR{
		A("mixed.hns", "10.0.0.1", 600), HNSMeta("mixed.hns", "next=ttls", 600), TXT("mixed.hns", "t", 600),
		HNSMeta("mixed.hns", "k=v", 600), A("mixed.hns", "10.0.0.2", 600),
		HNSMeta("ttls.hns", "next=unsorted", 600), HNSMeta("ttls.hns", "b=2", 60), HNSMeta("ttls.hns", "c=3", 600),
		A("ttls.hns", "10.0.0.3", 60),
		HNSMeta("unsorted.hns", "z=9", 600), A("unsorted.hns", "10.0.0.9", 600), HNSMeta("unsorted.hns", "a=1", 600),
		A("unsorted.hns", "10.0.0.1", 600),
	} {
		if err := z.Add(rr); err != nil {
			tb.Fatal(err)
		}
	}
	return s, z
}

// TestHRPCReplyGolden pins the bytes BINDQuery, BINDQueryChain and
// BINDTransfer answer with for three kinds of owner: one mixing types, one
// whose records carry two TTLs, and one whose records were added out of
// (type, data) order. Each reply is its rcode, and its serial where it
// has one, as u32s, then its sets payload, or each of the chain's sets
// behind its uvarint length, in hex. A run owned by the name asked carries
// an empty owner.
func TestHRPCReplyGolden(t *testing.T) {
	net := transport.NewNetwork()
	s, _ := goldenServer(t)
	ln, b, err := hrpc.Serve(net, s.HRPCServer(), hrpc.SuiteRaw, "tahoma", "tahoma:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hc := hrpc.NewClient(net)
	defer hc.Close()
	ctx := context.Background()
	reply := func(p hrpc.Procedure, args ...marshal.Value) string {
		ret, err := hc.Call(ctx, b, p, marshal.StructV(args...))
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var out []byte
		for _, it := range ret.Items {
			switch it.Kind {
			case marshal.KindBytes:
				out = append(out, it.Bytes...)
			case marshal.KindList:
				for _, set := range it.Items {
					out = appendPrefixed(out, set.Bytes)
				}
			default:
				out = binary.BigEndian.AppendUint32(out, uint32(it.Num))
			}
		}
		return hex.EncodeToString(out)
	}
	query := func(name string, t RRType) string {
		return reply(procQuery, marshal.Str(name), marshal.U32(uint32(t)))
	}
	next := FollowStep{Key: "next", Suffix: ".hns"}
	for name, tc := range map[string]struct{ got, want string }{
		"query mixed A":          {query("mixed.hns", TypeA), "00000000000101d804020831302e302e302e310831302e302e302e32"},
		"query mixed TXT":        {query("mixed.hns", TypeTXT), "00000000001001d804010174"},
		"query mixed HNSMETA":    {query("mixed.hns", TypeHNSMeta), "000000000080fe0301d80402096e6578743d74746c73036b3d76"},
		"query ttls HNSMETA":     {query("ttls.hns", TypeHNSMeta), "000000000080fe0301d804010d6e6578743d756e736f727465640080fe03013c0103623d320080fe0301d8040103633d33"},
		"query ttls A":           {query("ttls.hns", TypeA), "000000000001013c010831302e302e302e33"},
		"query unsorted HNSMETA": {query("unsorted.hns", TypeHNSMeta), "000000000080fe0301d80402037a3d3903613d31"},
		"query unsorted A":       {query("unsorted.hns", TypeA), "00000000000101d804020831302e302e302e390831302e302e302e31"},
		"query missing":          {query("none.hns", TypeA), "00000003"},
		"chain": {reply(procQueryChain, marshal.Str("mixed.hns"), marshal.U32(uint32(TypeHNSMeta)), followToList([]FollowStep{next, next})),
			"00000000160080fe0301d80402096e6578743d74746c73036b3d762d0080fe0301d804010d6e6578743d756e736f727465640080fe03013c0103623d320080fe0301d8040103633d33100080fe0301d80402037a3d3903613d31"},
		"transfer": {reply(procTransfer, marshal.Str("hns")),
			"000000000000000e096d697865642e686e730101d804020831302e302e302e310831302e302e302e32096d697865642e686e731001d804010174096d697865642e686e7380fe0301d80402036b3d76096e6578743d74746c730874746c732e686e7301013c010831302e302e302e330874746c732e686e7380fe03013c0103623d320874746c732e686e7380fe0301d8040203633d330d6e6578743d756e736f727465640c756e736f727465642e686e730101d804020831302e302e302e310831302e302e302e390c756e736f727465642e686e7380fe0301d8040203613d31037a3d39"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s replies %s, want %s", name, tc.got, tc.want)
		}
	}
}

// BenchmarkChainExchange is one cold FindNSM's meta exchange over the sim
// transport: the server's handler encodes the tenant chain, the client
// decodes and splits it. scripts/bench_alloc.sh gates its allocs/op.
func BenchmarkChainExchange(b *testing.B) {
	c, ids := tenantZone(b, 1, hrpc.SuiteRaw, "tahoma:bind-hrpc")
	chainExchanges(b, c, ids)
}

// BenchmarkChainExchangeCallback is BenchmarkChainExchange on a connection
// holding a callback subscription, so each link's re-arm finds its told
// set. scripts/bench_alloc.sh bounds it at the plain exchange's count.
func BenchmarkChainExchangeCallback(b *testing.B) {
	s, c, ids := tenantServer(b, 1, hrpc.SuiteRaw, "tahoma:bind-hrpc")
	s.EnablePush(0)
	sub := c.Subscribe(SubscribeConfig{Zone: "hns", Callback: true, Metrics: metrics.Discard})
	defer sub.Close()
	for changed := sub.Changed(); !sub.Active(); changed = sub.Changed() {
		if sub.Degraded() {
			b.Fatal("subscription refused")
		}
		<-changed
	}
	chainExchanges(b, c, ids)
}

func chainExchanges(b *testing.B, c *HRPCClient, ids []string) {
	ctx := context.Background()
	name := "t" + ids[0] + ".ctx.hns"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, tails, err := c.LookupChain(ctx, name, TypeHNSMeta, tenantFollow); err != nil || len(tails) != 2 {
			b.Fatalf("chain: %d tails, %v", len(tails), err)
		}
	}
}

// BenchmarkUpdateExchange is one BINDUpdate round trip over the sim
// transport, client and handler: the update a flip sends, alternately
// adding and removing h0's second mapping so the zone stays two records
// wide. scripts/bench_alloc.sh gates its allocs/op.
func BenchmarkUpdateExchange(b *testing.B) {
	c, _ := tenantZone(b, 0, hrpc.SuiteRaw, "tahoma:bind-hrpc")
	ctx := context.Background()
	rr := HNSMeta("h0.ctx.hns", "ns=bind-cs-b", 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Update(ctx, "hns", uint32(i&1), rr); err != nil {
			b.Fatalf("update %d: %v", i, err)
		}
	}
}

// BenchmarkUpdateExchangePush is BenchmarkUpdateExchange on a server with
// push on and one callback subscriber already told h0's name: every update
// in the loop is suppressed, so none sends a frame. scripts/bench_alloc.sh
// gates its allocs/op.
func BenchmarkUpdateExchangePush(b *testing.B) {
	s, c, _ := tenantServer(b, 0, hrpc.SuiteRaw, "tahoma:bind-hrpc")
	s.EnablePush(0)
	told := make(chan struct{}, 1)
	sub := c.Subscribe(SubscribeConfig{Zone: "hns", Callback: true, Metrics: metrics.Discard,
		OnNotify: func(push.Notification) {
			select {
			case told <- struct{}{}:
			default: // one is enough to fail the benchmark; never block the reader
			}
		}})
	defer sub.Close()
	for changed := sub.Changed(); !sub.Active(); changed = sub.Changed() {
		if sub.Degraded() {
			b.Fatal("subscription refused")
		}
		<-changed
	}
	ctx := context.Background()
	rr := HNSMeta("h0.ctx.hns", "ns=bind-cs-b", 600)
	if _, err := c.Update(ctx, "hns", UpdateAdd, rr); err != nil {
		b.Fatal(err)
	}
	<-told
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Update(ctx, "hns", uint32((i+1)&1), rr); err != nil {
			b.Fatalf("update %d: %v", i, err)
		}
	}
	b.StopTimer()
	if len(told) != 0 {
		b.Fatal("an update was pushed to a subscriber already told its name")
	}
}

// rrSeq is an arbitrary record sequence over few owners, types, classes
// and TTLs, so that long runs, interleaved owners and mixed TTLs under one
// name all come up.
type rrSeq []RR

func (rrSeq) Generate(r *rand.Rand, size int) reflect.Value {
	owners := []string{"", "h0.ctx.hns", "nsm-00000-1234.nsm.hns"}
	seq := make(rrSeq, r.Intn(size+1))
	for i := range seq {
		data := make([]byte, r.Intn(4))
		r.Read(data)
		seq[i] = RR{
			Name:  owners[r.Intn(len(owners))],
			Type:  []RRType{TypeA, TypeHNSMeta, 65535}[r.Intn(3)],
			Class: uint16(r.Intn(2)),
			TTL:   []uint32{600, 60, math.MaxUint32}[r.Intn(3)],
			Data:  data,
		}
	}
	return reflect.ValueOf(seq)
}

// sameRRs compares records field for field, TTL included.
func sameRRs(a, b []RR) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameRun(a[i], b[i]) || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// Property: decode(encode(rrs)) is rrs, in order, whatever the sequence.
func TestSetsRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1987))}
	if err := quick.Check(func(seq rrSeq) bool {
		got, err := decodeSets(appendSets(nil, seq))
		return err == nil && sameRRs(got, seq)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// A run holds at most 65535 records: a longer stretch is cut into full
// runs and a remainder, and only a full run may be continued.
func TestSetsLongRun(t *testing.T) {
	long := make([]RR, math.MaxUint16+2)
	for i := range long {
		long[i] = A("h0.ctx.hns", "", 60)
	}
	payload := appendSets(nil, long)
	if got, err := decodeSets(payload); err != nil || !sameRRs(got, long) {
		t.Fatalf("%d records in one stretch: %d back, %v", len(long), len(got), err)
	}
	split := append(appendSets(nil, long[:2]), appendSets(nil, long[:1])...)
	if _, err := decodeSets(split); err == nil {
		t.Fatal("a run continuing a two-record run was accepted")
	}
}

func TestSetsDecodeRejects(t *testing.T) {
	good := appendSets(nil, []RR{A("a.hns", "1", 60), A("a.hns", "2", 60)})
	count := len(good) - 2*2 - 1 // offset of the run's record count
	withCount := func(n ...byte) []byte {
		return append(append(bytes.Clone(good[:count]), n...), good[count+1:]...)
	}
	// run is one record of a.hns whose type, class and TTL are as given.
	run := func(typ, class, ttl uint64) []byte {
		b := binary.AppendUvarint(appendPrefixed(nil, "a.hns"), typ)
		b = binary.AppendUvarint(binary.AppendUvarint(b, class), ttl)
		return appendPrefixed(binary.AppendUvarint(b, 1), "1")
	}
	if _, err := decodeSets(run(math.MaxUint16, math.MaxUint16, math.MaxUint32)); err != nil {
		t.Fatalf("a run at every field's maximum: %v", err)
	}
	for name, b := range map[string][]byte{
		"truncated":        good[:len(good)-1],
		"trailing":         append(bytes.Clone(good), 0),
		"empty run":        withCount(0),
		"count too large":  withCount(binary.AppendUvarint(nil, math.MaxUint16)...),
		"count over 65535": withCount(binary.AppendUvarint(nil, math.MaxUint16+1)...),
		"count short":      withCount(1),
		"overlong count":   withCount(0x82, 0x00),
		"type over 65535":  run(math.MaxUint16+1, 1, 60),
		"class over 65535": run(1, math.MaxUint16+1, 60),
		"TTL over 2³²−1":   run(1, 1, math.MaxUint32+1),
		"non-maximal run":  append(bytes.Clone(good), appendSets(nil, []RR{A("a.hns", "3", 60)})...),
	} {
		if rrs, err := decodeSets(b); err == nil {
			t.Errorf("%s: decodeSets accepted %x as %v", name, b, rrs)
		}
	}
}

// FuzzRRSetsDecode: whatever decodeSets accepts re-encodes to the same
// bytes, so the codec has one encoding per record sequence.
func FuzzRRSetsDecode(f *testing.F) {
	f.Add(appendSets(nil, tenantRecords("00000-1234", "40321")[1:])) // a cold FindNSM's chain
	z, err := NewZone("hns", true)
	if err != nil {
		f.Fatal(err)
	}
	for _, rr := range append(tenantRecords("00001-beef", "6320"), A("h0.ctx.hns", "10.0.0.1", 60), A("h0.ctx.hns", "10.0.0.2", 600)) {
		if err := z.Add(rr); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(appendSets(nil, z.All()))
	f.Add([]byte{})
	decode := func(b []byte) error { _, err := decodeSets(b); return err }
	seed(f, decode, true, []byte{0, 1, 1, 60, 1, 0})              // one empty A record of no owner
	seed(f, decode, false, []byte{0, 1, 1, 60, 0x81, 0x00, 0})    // its count overlong
	seed(f, decode, false, []byte{0, 0x80, 0x80, 4, 1, 60, 1, 0}) // its type 65536
	f.Fuzz(func(t *testing.T, payload []byte) {
		rrs, err := decodeSets(payload)
		if err != nil {
			return
		}
		if out := appendSets(nil, rrs); !bytes.Equal(out, payload) {
			t.Fatalf("decode/encode not canonical: in=%x out=%x", payload, out)
		}
	})
}

// FuzzAnswerSetsDecode: whatever decodeAnswer accepts as the answer to a
// name re-encodes to the same bytes, and it accepts no run that spells
// that name, nor, in a tail, any run that spells an owner or no run at
// all. A chain reply of more sets than names asked is refused, whatever
// its sets hold.
func FuzzAnswerSetsDecode(f *testing.F) {
	s, z := goldenServer(f)
	if err := z.Add(CNAME("alias.hns", "mixed.hns", 600)); err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	for _, q := range []struct {
		name string
		t    RRType
	}{
		{"mixed.hns", TypeA}, {"mixed.hns", TypeTXT}, {"mixed.hns", TypeHNSMeta}, {"ttls.hns", TypeHNSMeta},
		{"ttls.hns", TypeA}, {"unsorted.hns", TypeHNSMeta}, {"unsorted.hns", TypeA}, {"alias.hns", TypeA},
	} {
		_, sets := s.answer(ctx, q.name, q.t)
		f.Add(appendElided(nil, sets, q.name), q.name, false) // a BINDQuery reply
		f.Add(sets, q.name, false)                            // its owner spelled
		f.Add(sets, "tail.hns", true)                         // a tail spelling one
	}
	next := FollowStep{Key: "next", Suffix: ".hns"}
	ret, err := s.queryChain(ctx, marshal.StructV(marshal.Str("mixed.hns"), marshal.U32(uint32(TypeHNSMeta)),
		followToList([]FollowStep{next, next})))
	if err != nil {
		f.Fatal(err)
	}
	for i, name := range []string{"mixed.hns", "ttls.hns", "unsorted.hns"} {
		f.Add(ret.Items[1].Items[i].Bytes, name, i > 0) // each chain set
	}
	f.Add([]byte{}, "a.hns", true)
	// The head of a BINDQuery reply, its TTL overlong, then its type 65536.
	for _, set := range []string{"0080fe0301d88400010174", "0080800401d804010174"} {
		b := unhex(f, set)
		if _, err := decodeAnswer(nil, b, "a.hns", true); err == nil {
			f.Fatalf("seed %s accepted", set)
		}
		f.Add(b, "a.hns", false)
	}
	f.Fuzz(func(t *testing.T, set []byte, name string, tail bool) {
		if _, _, _, err := decodeChain([]marshal.Value{marshal.BytesV(set), marshal.BytesV(set)}, name, nil); err == nil {
			t.Fatal("two sets for a chain of one name were accepted")
		}
		rrs, err := decodeAnswer(nil, set, name, !tail)
		if err != nil {
			return
		}
		if out := appendElided(nil, appendSets(nil, rrs), name); !bytes.Equal(out, set) {
			t.Fatalf("decode/encode not canonical for %q: in=%x out=%x", name, set, out)
		}
		if tail && len(rrs) == 0 {
			t.Fatalf("an empty tail for %q was accepted", name)
		}
		spelled, _ := decodeSets(set) // an accepted answer is runs
		for i, rr := range spelled {
			if rr.Name == "" && rrs[i].Name != name || rr.Name != "" && (rr.Name == name || tail || rrs[i].Name != rr.Name) {
				t.Fatalf("answer to %q (tail %v) accepted a run spelling %q as %q", name, tail, rr.Name, rrs[i].Name)
			}
		}
	})
}

// A field the wire carries narrower than a u32 is refused, never
// truncated: a query for type 65536+A is not answered with the A records,
// and an update op past a byte is not sent as Add.
func TestHRPCRefusesWideFields(t *testing.T) {
	c, _ := tenantZone(t, 0, hrpc.SuiteRaw, "tahoma:bind-hrpc")
	ctx := context.Background()
	var rf *hrpc.RemoteFault
	if _, err := c.c.Call(ctx, c.b, procQuery, marshal.StructV(
		marshal.Str("h0.ctx.hns"), marshal.U32(1<<16|uint32(TypeHNSMeta)),
	)); !errors.As(err, &rf) {
		t.Errorf("query of type %#x = %v, want a remote fault", 1<<16|uint32(TypeHNSMeta), err)
	}
	rr := HNSMeta("h0.ctx.hns", "ns=bind-cs-b", 600)
	if _, err := c.Update(ctx, "hns", 1<<8|UpdateAdd, rr); err == nil {
		t.Error("update op 256 was accepted")
	}
	if rrs, err := c.Lookup(ctx, "h0.ctx.hns", TypeHNSMeta); err != nil || len(rrs) != 1 {
		t.Errorf("h0 after the refused update = %v, %v; want its one record", rrs, err)
	}
}

// TestOldVersionRefused: a caller of the interface at version 1, whose
// answers spelled every owner, or at version 2, whose records carried
// fixed-width integers, is refused by version: each lookup, update and
// delta fails with the server's version-mismatch fault, counted as
// hrpc.remote_fault, before any reply reaches the sets decoder or any
// request the journal.
func TestOldVersionRefused(t *testing.T) {
	c, ids := tenantZone(t, 1, hrpc.SuiteRaw, "tahoma:bind-hrpc")
	reg := metrics.NewRegistry()
	c.c.Metrics = reg
	ctx := context.Background()
	calls := map[string]func(*HRPCClient) error{
		"lookup": func(oc *HRPCClient) error {
			_, err := oc.Lookup(ctx, "h0.ctx.hns", TypeHNSMeta)
			return err
		},
		"chain": func(oc *HRPCClient) error {
			_, _, err := oc.LookupChain(ctx, "t"+ids[0]+".ctx.hns", TypeHNSMeta, tenantFollow)
			return err
		},
		"update": func(oc *HRPCClient) error {
			_, err := oc.Update(ctx, "hns", UpdateAdd, HNSMeta("h0.ctx.hns", "ns=bind-cs-b", 600))
			return err
		},
		"delta": func(oc *HRPCClient) error {
			_, _, _, err := oc.TransferDelta(ctx, "hns", 0)
			return err
		},
	}
	for _, version := range []uint32{1, 2} {
		old := c.b
		old.Version = version
		oc := NewHRPCClient(c.c, old)
		for name, call := range calls {
			var rf *hrpc.RemoteFault
			if err := call(oc); !errors.As(err, &rf) || !strings.Contains(rf.Msg, "version mismatch") || transport.CodeOf(err) != transport.CodeRemoteFault {
				t.Errorf("version-%d %s = %v, want the server's version-mismatch fault", version, name, err)
			}
		}
	}
	if n := reg.Counter(metrics.Labels("hrpc_client_errors_total", "code", "hrpc.remote_fault")).Value(); n != 8 {
		t.Errorf("hrpc_client_errors_total{code=hrpc.remote_fault} = %d, want 8", n)
	}
	if rrs, err := c.Lookup(ctx, "h0.ctx.hns", TypeHNSMeta); err != nil || len(rrs) != 1 {
		t.Errorf("h0 after the refused updates = %v, %v; want its one record", rrs, err)
	}
}
