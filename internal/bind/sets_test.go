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
	"testing"
	"testing/quick"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/metrics"
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
	return NewHRPCClient(hc, b), ids
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
// packed representation.
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
		}, 68, 242},
		{"lookup", func() error {
			rrs, err := c.Lookup(ctx, "h0.ctx.hns", TypeHNSMeta)
			if err == nil && len(rrs) != 1 {
				err = fmt.Errorf("lookup = %v", rrs)
			}
			return err
		}, 20, 38},
		{"update h0 add", update(UpdateAdd, "h0.ctx.hns", "bind-cs-b"), 47, 4},
		{"update h0 remove", update(UpdateRemove, "h0.ctx.hns", "bind-cs"), 45, 4},
		{"update h100 add", update(UpdateAdd, "h100.ctx.hns", "bind-cs-b"), 49, 4},
		{"update h100 remove", update(UpdateRemove, "h100.ctx.hns", "bind-cs"), 47, 4},
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

// TestHRPCReplyGolden pins the bytes BINDQuery, BINDQueryChain and
// BINDTransfer answer with for three kinds of owner: one mixing types, one
// whose records carry two TTLs, and one whose records were added out of
// (type, data) order. Each reply is its rcode, its serial where it has
// one, then its sets payload, in hex.
func TestHRPCReplyGolden(t *testing.T) {
	net := transport.NewNetwork()
	s := NewServer("tahoma")
	z, err := NewZone("hns", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
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
			t.Fatal(err)
		}
	}
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
			if it.Kind == marshal.KindBytes {
				out = append(out, it.Bytes...)
			} else {
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
		"query mixed A":          {query("mixed.hns", TypeA), "0000000000096d697865642e686e7300010001000002580002000831302e302e302e31000831302e302e302e32"},
		"query mixed TXT":        {query("mixed.hns", TypeTXT), "0000000000096d697865642e686e7300100001000002580001000174"},
		"query mixed HNSMETA":    {query("mixed.hns", TypeHNSMeta), "0000000000096d697865642e686e73ff00000100000258000200096e6578743d74746c7300036b3d76"},
		"query ttls HNSMETA":     {query("ttls.hns", TypeHNSMeta), "00000000000874746c732e686e73ff000001000002580001000d6e6578743d756e736f72746564000874746c732e686e73ff0000010000003c00010003623d32000874746c732e686e73ff0000010000025800010003633d33"},
		"query ttls A":           {query("ttls.hns", TypeA), "00000000000874746c732e686e73000100010000003c0001000831302e302e302e33"},
		"query unsorted HNSMETA": {query("unsorted.hns", TypeHNSMeta), "00000000000c756e736f727465642e686e73ff00000100000258000200037a3d390003613d31"},
		"query unsorted A":       {query("unsorted.hns", TypeA), "00000000000c756e736f727465642e686e7300010001000002580002000831302e302e302e39000831302e302e302e31"},
		"query missing":          {query("none.hns", TypeA), "00000003"},
		"chain": {reply(procQueryChain, marshal.Str("mixed.hns"), marshal.U32(uint32(TypeHNSMeta)), followToList([]FollowStep{next, next})),
			"0000000000096d697865642e686e73ff00000100000258000200096e6578743d74746c7300036b3d76000874746c732e686e73ff000001000002580001000d6e6578743d756e736f72746564000874746c732e686e73ff0000010000003c00010003623d32000874746c732e686e73ff0000010000025800010003633d33000c756e736f727465642e686e73ff00000100000258000200037a3d390003613d31"},
		"transfer": {reply(procTransfer, marshal.Str("hns")),
			"000000000000000e00096d697865642e686e7300010001000002580002000831302e302e302e31000831302e302e302e3200096d697865642e686e730010000100000258000100017400096d697865642e686e73ff00000100000258000200036b3d7600096e6578743d74746c73000874746c732e686e73000100010000003c0001000831302e302e302e33000874746c732e686e73ff0000010000003c00010003623d32000874746c732e686e73ff0000010000025800020003633d33000d6e6578743d756e736f72746564000c756e736f727465642e686e7300010001000002580002000831302e302e302e31000831302e302e302e39000c756e736f727465642e686e73ff0000010000025800020003613d3100037a3d39"},
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
	count := len(good) - 2*3 - 2 // offset of the run's record count
	withCount := func(n uint16) []byte {
		b := bytes.Clone(good)
		b[count], b[count+1] = byte(n>>8), byte(n)
		return b
	}
	for name, b := range map[string][]byte{
		"truncated":       good[:len(good)-1],
		"trailing":        append(bytes.Clone(good), 0),
		"empty run":       withCount(0),
		"count too large": withCount(math.MaxUint16),
		"count short":     withCount(1),
		"non-maximal run": append(bytes.Clone(good), appendSets(nil, []RR{A("a.hns", "3", 60)})...),
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
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 0, 0, 60, 0, 0})
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
