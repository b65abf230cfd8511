package bind

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hns/internal/hrpc"
	"hns/internal/marshal"
	"hns/internal/simtime"
	"hns/internal/transport"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"FIJI.CS.Washington.EDU", "fiji.cs.washington.edu", true},
		{"fiji.cs.washington.edu.", "fiji.cs.washington.edu", true},
		{"a", "a", true},
		{"", "", false},
		{".", "", false},
		{"a..b", "", false},
		{"has space.example", "", false},
		{strings.Repeat("a", 64) + ".example", "", false},
		{strings.Repeat("a.", 130) + "a", "", false},
		// A leading comment character would turn the record's zone-file
		// line into a comment: dump and reload would drop it silently.
		{"#x.z.test", "", false},
		{";x.z.test", "", false},
		{"x#.z.test", "x#.z.test", true},
	}
	for _, tc := range cases {
		got, err := CanonicalName(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("CanonicalName(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("CanonicalName(%q) accepted", tc.in)
		}
	}
}

func TestRRValidate(t *testing.T) {
	rr := A("FIJI.cs.washington.edu", "udp!fiji:53", 300)
	if err := (&rr).Validate(); err != nil {
		t.Fatal(err)
	}
	if rr.Name != "fiji.cs.washington.edu" {
		t.Fatalf("name not canonicalized: %q", rr.Name)
	}
	big := RR{Name: "x.example", Type: TypeTXT, Data: make([]byte, MaxRDataLen+1)}
	if err := (&big).Validate(); !errors.Is(err, ErrDataTooBig) {
		t.Fatalf("oversized data accepted: %v", err)
	}
}

func newTestZone(t *testing.T) *Zone {
	t.Helper()
	z, err := NewZone("cs.washington.edu", true)
	if err != nil {
		t.Fatal(err)
	}
	return z
}

func TestZoneAddLookup(t *testing.T) {
	z := newTestZone(t)
	if err := z.Add(A("fiji.cs.washington.edu", "10.0.0.1", 60)); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(A("fiji.cs.washington.edu", "10.0.0.2", 60)); err != nil {
		t.Fatal(err)
	}
	rrs, err := z.Lookup("FIJI.cs.washington.edu", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) != 2 {
		t.Fatalf("Lookup returned %d records", len(rrs))
	}
	// Type filtering.
	rrs, err = z.Lookup("fiji.cs.washington.edu", TypeTXT)
	if err != nil || rrs != nil {
		t.Fatalf("TXT lookup = %v, %v", rrs, err)
	}
}

func TestZoneRejectsForeignName(t *testing.T) {
	z := newTestZone(t)
	if err := z.Add(A("parc.xerox.com", "10.1.1.1", 60)); !errors.Is(err, ErrNotInZone) {
		t.Fatalf("foreign name accepted: %v", err)
	}
}

func TestZoneSerialBumps(t *testing.T) {
	z := newTestZone(t)
	s0 := z.Serial()
	if err := z.Add(A("a.cs.washington.edu", "1", 60)); err != nil {
		t.Fatal(err)
	}
	if z.Serial() <= s0 {
		t.Fatal("Add did not bump serial")
	}
	s1 := z.Serial()
	if err := z.Remove(RR{Name: "a.cs.washington.edu", Type: TypeA}); err != nil {
		t.Fatal(err)
	}
	if z.Serial() <= s1 {
		t.Fatal("Remove did not bump serial")
	}
}

func TestZoneDuplicateAddRefreshesTTL(t *testing.T) {
	z := newTestZone(t)
	if err := z.Add(A("a.cs.washington.edu", "1", 60)); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(A("a.cs.washington.edu", "1", 999)); err != nil {
		t.Fatal(err)
	}
	rrs, _ := z.Lookup("a.cs.washington.edu", TypeA)
	if len(rrs) != 1 || rrs[0].TTL != 999 {
		t.Fatalf("duplicate add: %v", rrs)
	}
}

func TestZoneRemove(t *testing.T) {
	z := newTestZone(t)
	z.Add(A("a.cs.washington.edu", "1", 60))
	z.Add(A("a.cs.washington.edu", "2", 60))
	// Remove by exact data.
	if err := z.Remove(A("a.cs.washington.edu", "1", 0)); err != nil {
		t.Fatal(err)
	}
	rrs, _ := z.Lookup("a.cs.washington.edu", TypeA)
	if len(rrs) != 1 || string(rrs[0].Data) != "2" {
		t.Fatalf("after targeted remove: %v", rrs)
	}
	// Remove all of a type.
	if err := z.Remove(RR{Name: "a.cs.washington.edu", Type: TypeA}); err != nil {
		t.Fatal(err)
	}
	if rrs, _ := z.Lookup("a.cs.washington.edu", TypeA); rrs != nil {
		t.Fatalf("after full remove: %v", rrs)
	}
	// Removing the absent record errors.
	if err := z.Remove(RR{Name: "a.cs.washington.edu", Type: TypeA}); !errors.Is(err, ErrNoSuchRecord) {
		t.Fatalf("missing remove: %v", err)
	}
}

func TestZoneCNAME(t *testing.T) {
	z := newTestZone(t)
	z.Add(A("real.cs.washington.edu", "10.0.0.9", 60))
	if err := z.Add(CNAME("alias.cs.washington.edu", "real.cs.washington.edu", 60)); err != nil {
		t.Fatal(err)
	}
	rrs, err := z.Lookup("alias.cs.washington.edu", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) != 1 || string(rrs[0].Data) != "10.0.0.9" {
		t.Fatalf("CNAME chase: %v", rrs)
	}
	// CNAME may not coexist with other data.
	if err := z.Add(A("alias.cs.washington.edu", "10.0.0.10", 60)); !errors.Is(err, ErrCNAMEConflict) {
		t.Fatalf("A beside CNAME accepted: %v", err)
	}
	if err := z.Add(CNAME("real.cs.washington.edu", "x.cs.washington.edu", 60)); !errors.Is(err, ErrCNAMEConflict) {
		t.Fatalf("CNAME beside A accepted: %v", err)
	}
}

func TestZoneCNAMELoop(t *testing.T) {
	z := newTestZone(t)
	z.Add(CNAME("a.cs.washington.edu", "b.cs.washington.edu", 60))
	z.Add(CNAME("b.cs.washington.edu", "a.cs.washington.edu", 60))
	if _, err := z.Lookup("a.cs.washington.edu", TypeA); !errors.Is(err, ErrTooManyAliases) {
		t.Fatalf("CNAME loop: %v", err)
	}
}

func TestZoneAllSortedAndCount(t *testing.T) {
	z := newTestZone(t)
	z.Add(A("b.cs.washington.edu", "2", 60))
	z.Add(A("a.cs.washington.edu", "1", 60))
	z.Add(TXT("a.cs.washington.edu", "hello", 60))
	all := z.All()
	if len(all) != 3 || z.Count() != 3 {
		t.Fatalf("All/Count = %d/%d", len(all), z.Count())
	}
	if all[0].Name != "a.cs.washington.edu" || all[2].Name != "b.cs.washington.edu" {
		t.Fatalf("All not sorted: %v", all)
	}
}

// Property: Add then Lookup always finds the record; Remove then Lookup
// never does.
func TestZoneAddRemoveProperty(t *testing.T) {
	f := func(labels []string, data []byte) bool {
		z, _ := NewZone("z.test", true)
		if len(data) > MaxRDataLen {
			data = data[:MaxRDataLen]
		}
		// Zones only accept data that survives the zone-file format
		// (non-empty, no line breaks, no edge whitespace) — see
		// storableData; normalize the generated payload to that shape.
		data = bytes.TrimSpace(bytes.ReplaceAll(bytes.ReplaceAll(data,
			[]byte("\n"), []byte("_")), []byte("\r"), []byte("_")))
		if len(data) == 0 {
			data = []byte("x")
		}
		seen := map[string]bool{}
		for _, l := range labels {
			name, err := CanonicalName(strings.Trim(l, ".") + ".z.test")
			if err != nil {
				continue // unencodable label; skip
			}
			rr := RR{Name: name, Type: TypeTXT, TTL: 60, Data: data}
			if err := z.Add(rr); err != nil {
				return false
			}
			seen[name] = true
		}
		for name := range seen {
			rrs, err := z.Lookup(name, TypeTXT)
			if err != nil || len(rrs) == 0 {
				return false
			}
			if err := z.Remove(RR{Name: name, Type: TypeTXT}); err != nil {
				return false
			}
			rrs, err = z.Lookup(name, TypeTXT)
			if err != nil || rrs != nil {
				return false
			}
		}
		return z.Count() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}

// ---- Wire codec.

func TestWireRoundTrip(t *testing.T) {
	m := &Message{
		ID:       42,
		Response: true,
		RCode:    RCodeOK,
		QName:    "fiji.cs.washington.edu",
		QType:    TypeA,
		Answers: []RR{
			A("fiji.cs.washington.edu", "10.0.0.1", 300),
			A("fiji.cs.washington.edu", "10.0.0.2", 300),
		},
	}
	buf, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != m.ID || !got.Response || got.RCode != m.RCode ||
		got.QName != m.QName || got.QType != m.QType || len(got.Answers) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if string(got.Answers[1].Data) != "10.0.0.2" {
		t.Fatalf("answer data: %v", got.Answers)
	}
}

func TestWireTruncation(t *testing.T) {
	m := &Message{ID: 1, QName: "a.b", QType: TypeA,
		Answers: []RR{A("a.b", "1.2.3.4", 60)}}
	buf, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeMessage(buf[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := DecodeMessage(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestWireFuzzProperty(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = DecodeMessage(raw) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1987))}); err != nil {
		t.Fatal(err)
	}
}

// ---- Server + clients end to end.

// testEnv stands up one BIND server with both interfaces on a fresh
// simulated network.
type testEnv struct {
	net     *transport.Network
	server  *Server
	stdAddr string
	hrpcB   hrpc.Binding
	client  *hrpc.Client
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	net := transport.NewNetwork()
	s := NewServer("fiji")

	z, err := NewZone("cs.washington.edu", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRecords([]RR{
		A("fiji.cs.washington.edu", "udp!fiji", 600),
		A("june.cs.washington.edu", "udp!june", 600),
		HNSMeta("ctx.hrpcbinding-bind.cs.washington.edu", "ns=bind.cs.washington.edu", 600),
	}); err != nil {
		t.Fatal(err)
	}

	stdLn, err := s.ServeStd(net, "udp", "fiji:53")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stdLn.Close() })

	hrpcLn, hb, err := s.ServeHRPC(net, "fiji:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hrpcLn.Close() })

	c := hrpc.NewClient(net)
	t.Cleanup(func() { c.Close() })
	return &testEnv{net: net, server: s, stdAddr: "fiji:53", hrpcB: hb, client: c}
}

func TestStdClientLookup(t *testing.T) {
	env := newTestEnv(t)
	c := NewStdClient(env.net, "udp", env.stdAddr)
	defer c.Close()
	rrs, err := c.Lookup(context.Background(), "FIJI.cs.washington.edu", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) != 1 || string(rrs[0].Data) != "udp!fiji" {
		t.Fatalf("Lookup = %v", rrs)
	}
}

func TestStdClientNXDomain(t *testing.T) {
	env := newTestEnv(t)
	c := NewStdClient(env.net, "udp", env.stdAddr)
	defer c.Close()
	_, err := c.Lookup(context.Background(), "ghost.cs.washington.edu", TypeA)
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.RCode != RCodeNXDomain {
		t.Fatalf("want NXDOMAIN, got %v", err)
	}
}

func TestStdClientNotAuthoritative(t *testing.T) {
	env := newTestEnv(t)
	c := NewStdClient(env.net, "udp", env.stdAddr)
	defer c.Close()
	_, err := c.Lookup(context.Background(), "parc.xerox.com", TypeA)
	var nf *NotFoundError
	if !errors.As(err, &nf) || nf.RCode != RCodeRefused {
		t.Fatalf("want REFUSED, got %v", err)
	}
}

// TestStdLookupCostAnchor pins the paper's headline number: "a BIND name
// to address lookup takes 27 msec."
func TestStdLookupCostAnchor(t *testing.T) {
	env := newTestEnv(t)
	c := NewStdClient(env.net, "udp", env.stdAddr)
	defer c.Close()
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := c.Lookup(ctx, "fiji.cs.washington.edu", TypeA)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	gotMS := float64(cost) / float64(time.Millisecond)
	if gotMS < 24 || gotMS > 30 {
		t.Fatalf("standard BIND lookup = %.2f ms, want ≈27 ms", gotMS)
	}
}

func TestHRPCClientQuery(t *testing.T) {
	env := newTestEnv(t)
	c := NewHRPCClient(env.client, env.hrpcB)
	rrs, err := c.Lookup(context.Background(), "june.cs.washington.edu", TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) != 1 || string(rrs[0].Data) != "udp!june" {
		t.Fatalf("Lookup = %v", rrs)
	}
	// The HNSMETA unspecified-type record is retrievable too.
	rrs, err = c.Lookup(context.Background(), "ctx.hrpcbinding-bind.cs.washington.edu", TypeHNSMeta)
	if err != nil {
		t.Fatal(err)
	}
	if len(rrs) != 1 || !strings.Contains(string(rrs[0].Data), "ns=") {
		t.Fatalf("HNSMETA lookup = %v", rrs)
	}
}

// TestHRPCLookupDearerThanStd verifies the generated-marshalling interface
// costs visibly more than the standard one over the same network path —
// the phenomenon behind Table 3.2.
func TestHRPCLookupDearerThanStd(t *testing.T) {
	env := newTestEnv(t)
	std := NewStdClient(env.net, "udp", env.stdAddr)
	defer std.Close()
	hc := NewHRPCClient(env.client, env.hrpcB)

	stdCost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := std.Lookup(ctx, "fiji.cs.washington.edu", TypeA)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the TCP connection so setup cost doesn't skew the comparison.
	if _, err := hc.Lookup(context.Background(), "fiji.cs.washington.edu", TypeA); err != nil {
		t.Fatal(err)
	}
	hrpcCost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := hc.Lookup(ctx, "fiji.cs.washington.edu", TypeA)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if hrpcCost <= stdCost {
		t.Fatalf("HRPC lookup (%v) should cost more than standard (%v)", hrpcCost, stdCost)
	}
}

func TestDynamicUpdate(t *testing.T) {
	env := newTestEnv(t)
	c := NewHRPCClient(env.client, env.hrpcB)
	ctx := context.Background()

	s0, err := c.Serial(ctx, "cs.washington.edu")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := c.Update(ctx, "cs.washington.edu", UpdateAdd,
		A("new.cs.washington.edu", "udp!new", 300))
	if err != nil {
		t.Fatal(err)
	}
	if serial <= s0 {
		t.Fatalf("serial %d not bumped from %d", serial, s0)
	}
	rrs, err := c.Lookup(ctx, "new.cs.washington.edu", TypeA)
	if err != nil || len(rrs) != 1 {
		t.Fatalf("lookup after update: %v, %v", rrs, err)
	}
	if _, err := c.Update(ctx, "cs.washington.edu", UpdateRemove,
		RR{Name: "new.cs.washington.edu", Type: TypeA}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(ctx, "new.cs.washington.edu", TypeA); err == nil {
		t.Fatal("record survived removal")
	}
}

// TestUpdateVisibleToNextLookup is the server's read-your-write contract:
// the lookup that follows an acknowledged update sees it, on both
// interfaces, for a name each interface has already answered.
func TestUpdateVisibleToNextLookup(t *testing.T) {
	env := newTestEnv(t)
	hc := NewHRPCClient(env.client, env.hrpcB)
	sc := NewStdClient(env.net, "udp", env.stdAddr)
	defer sc.Close()
	ctx := context.Background()
	const name = "fiji.cs.washington.edu"

	expect := func(when string, want int) {
		t.Helper()
		for iface, l := range map[string]Lookuper{"hrpc": hc, "std": sc} {
			if rrs, err := l.Lookup(ctx, name, TypeA); err != nil || len(rrs) != want {
				t.Fatalf("%s lookup %s = %v, %v; want %d records", iface, when, rrs, err, want)
			}
		}
	}
	expect("before update", 1)
	if _, err := hc.Update(ctx, "cs.washington.edu", UpdateAdd, A(name, "udp!fiji-b", 600)); err != nil {
		t.Fatal(err)
	}
	expect("after add", 2)
	if _, err := hc.Update(ctx, "cs.washington.edu", UpdateRemove, A(name, "udp!fiji-b", 600)); err != nil {
		t.Fatal(err)
	}
	expect("after remove", 1)
}

// TestRetiredProcedureIsUnknown: procedure id 5 is retired and not reused,
// so a caller that still sends it gets the ordinary unknown-procedure fault
// (hrpc.TestWrongProgramVersionProc pins that fault in general) and the
// client stays usable for the BINDQuery that follows.
func TestRetiredProcedureIsUnknown(t *testing.T) {
	env := newTestEnv(t)
	retired := hrpc.Procedure{
		Name: "Retired", ID: 5,
		Args: marshal.TStruct(), Ret: marshal.TStruct(), Style: marshal.StyleNone,
	}
	_, err := env.client.Call(context.Background(), env.hrpcB, retired, marshal.StructV())
	var rf *hrpc.RemoteFault
	if !errors.As(err, &rf) || !strings.Contains(rf.Msg, "procedure 5 unavailable") {
		t.Fatalf("call to procedure 5 = %v, want the unknown-procedure fault", err)
	}
	hc := NewHRPCClient(env.client, env.hrpcB)
	if rrs, err := hc.Lookup(context.Background(), "fiji.cs.washington.edu", TypeA); err != nil || len(rrs) != 1 {
		t.Fatalf("BINDQuery after the fault = %v, %v", rrs, err)
	}
}

func TestUpdateDeniedOnConventionalZone(t *testing.T) {
	net := transport.NewNetwork()
	s := NewServer("vax")
	z, _ := NewZone("static.test", false) // conventional BIND: no updates
	s.AddZone(z)
	ln, b, err := s.ServeHRPC(net, "vax:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hc := hrpc.NewClient(net)
	defer hc.Close()
	c := NewHRPCClient(hc, b)
	_, err = c.Update(context.Background(), "static.test", UpdateAdd, A("a.static.test", "1", 60))
	if err == nil {
		t.Fatal("update accepted on conventional zone")
	}
}

func TestZoneTransfer(t *testing.T) {
	env := newTestEnv(t)
	c := NewHRPCClient(env.client, env.hrpcB)
	serial, rrs, err := c.Transfer(context.Background(), "cs.washington.edu")
	if err != nil {
		t.Fatal(err)
	}
	if serial == 0 || len(rrs) != 3 {
		t.Fatalf("Transfer = serial %d, %d records", serial, len(rrs))
	}
	// Deterministic order.
	_, rrs2, err := c.Transfer(context.Background(), "cs.washington.edu")
	if err != nil {
		t.Fatal(err)
	}
	for i := range rrs {
		if !rrs[i].Equal(rrs2[i]) {
			t.Fatal("transfer order not deterministic")
		}
	}
	if _, _, err := c.Transfer(context.Background(), "other.zone"); err == nil {
		t.Fatal("transfer of foreign zone accepted")
	}
}

// ---- Resolver caching.

func TestResolverCachesAndExpires(t *testing.T) {
	env := newTestEnv(t)
	std := NewStdClient(env.net, "udp", env.stdAddr)
	defer std.Close()
	clk := simtime.NewFakeClock(time.Now())
	r := NewResolver(std, ResolverConfig{Clock: clk})

	ctx := context.Background()
	if _, err := r.Lookup(ctx, "fiji.cs.washington.edu", TypeA); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup(ctx, "fiji.cs.washington.edu", TypeA); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Expire (records carry TTL 600s).
	clk.Advance(601 * time.Second)
	if _, err := r.Lookup(ctx, "fiji.cs.washington.edu", TypeA); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Expired != 1 {
		t.Fatalf("stats after expiry = %+v", st)
	}
}

func TestResolverHitCostByMode(t *testing.T) {
	env := newTestEnv(t)
	std := NewStdClient(env.net, "udp", env.stdAddr)
	defer std.Close()
	ctx := context.Background()

	measureHit := func(mode CacheMode) time.Duration {
		r := NewResolver(std, ResolverConfig{Mode: mode, Style: marshal.StyleGenerated})
		if _, err := r.Lookup(ctx, "fiji.cs.washington.edu", TypeA); err != nil {
			t.Fatal(err)
		}
		cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
			_, err := r.Lookup(ctx, "fiji.cs.washington.edu", TypeA)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}

	demars := measureHit(CacheDemarshalled)
	mars := measureHit(CacheMarshalled)
	// Table 3.2, one record: demarshalled 0.83 ms vs marshalled 11.11 ms.
	if demars >= mars {
		t.Fatalf("demarshalled hit (%v) must beat marshalled hit (%v)", demars, mars)
	}
	dms := float64(demars) / float64(time.Millisecond)
	mms := float64(mars) / float64(time.Millisecond)
	if dms < 0.5 || dms > 1.5 {
		t.Errorf("demarshalled hit = %.2f ms, want ≈0.83", dms)
	}
	if mms < 10 || mms > 13 {
		t.Errorf("marshalled hit = %.2f ms, want ≈11.11", mms)
	}
}

func TestResolverPreload(t *testing.T) {
	env := newTestEnv(t)
	std := NewStdClient(env.net, "udp", env.stdAddr)
	defer std.Close()
	r := NewResolver(std, ResolverConfig{})
	r.Preload([]RR{
		A("fiji.cs.washington.edu", "udp!fiji", 600),
		A("june.cs.washington.edu", "udp!june", 600),
	})
	cost, err := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := r.Lookup(ctx, "june.cs.washington.edu", TypeA)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// A preloaded entry must be served from cache (far below a 27 ms
	// remote lookup).
	if cost > 5*time.Millisecond {
		t.Fatalf("preloaded lookup cost %v — went remote", cost)
	}
	if st := r.Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestServerDuplicateZone(t *testing.T) {
	s := NewServer("h")
	z1, _ := NewZone("a.test", false)
	z2, _ := NewZone("a.test", false)
	if err := s.AddZone(z1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z2); err == nil {
		t.Fatal("duplicate zone accepted")
	}
}

func TestServerLongestZoneMatch(t *testing.T) {
	s := NewServer("h")
	parent, _ := NewZone("washington.edu", true)
	child, _ := NewZone("cs.washington.edu", true)
	s.AddZone(parent)
	s.AddZone(child)
	child.Add(A("fiji.cs.washington.edu", "child", 60))
	parent.Add(A("ee.washington.edu", "parent", 60))

	rcode, rrs := s.Query(context.Background(), "fiji.cs.washington.edu", TypeA)
	if rcode != RCodeOK || string(rrs[0].Data) != "child" {
		t.Fatalf("child zone not matched: %v %v", rcode, rrs)
	}
	rcode, rrs = s.Query(context.Background(), "ee.washington.edu", TypeA)
	if rcode != RCodeOK || string(rrs[0].Data) != "parent" {
		t.Fatalf("parent zone not matched: %v %v", rcode, rrs)
	}
}

func TestMinTTL(t *testing.T) {
	if MinTTL(nil) != 0 {
		t.Fatal("MinTTL(nil) != 0")
	}
	rrs := []RR{A("a.b", "1", 300), A("a.b", "2", 60), A("a.b", "3", 900)}
	if got := MinTTL(rrs); got != 60 {
		t.Fatalf("MinTTL = %d", got)
	}
}

func TestRRTypeStrings(t *testing.T) {
	for typ, want := range map[RRType]string{
		TypeA: "A", TypeCNAME: "CNAME", TypeTXT: "TXT",
		TypeHNSMeta: "HNSMETA", RRType(999): "TYPE999",
	} {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	for rc, want := range map[RCode]string{
		RCodeOK: "NOERROR", RCodeNXDomain: "NXDOMAIN",
		RCode(9): "RCODE9", RCode(11): "RCODE11",
	} {
		if got := rc.String(); got != want {
			t.Errorf("rcode %d = %q, want %q", rc, got, want)
		}
	}
}

func TestServerString(t *testing.T) {
	s := NewServer("fiji")
	z, _ := NewZone("cs.washington.edu", false)
	s.AddZone(z)
	if got := s.String(); !strings.Contains(got, "fiji") || !strings.Contains(got, "cs.washington.edu") {
		t.Fatalf("String() = %q", got)
	}
	if got := fmt.Sprint(A("a.b", "x", 1)); !strings.Contains(got, "A") {
		t.Fatalf("RR String = %q", got)
	}
}

func TestStdClientOverTCP(t *testing.T) {
	// The standard interface is transport-agnostic: serve it over the
	// (simulated) TCP transport and query it there.
	env := newTestEnv(t)
	ln, err := env.server.ServeStd(env.net, "tcp", "fiji:53tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c := NewStdClient(env.net, "tcp", "fiji:53tcp")
	defer c.Close()
	rrs, err := c.Lookup(context.Background(), world_HostBind, TypeA)
	if err != nil || len(rrs) != 1 {
		t.Fatalf("tcp lookup: %v, %v", rrs, err)
	}
	// TCP costs more than UDP for the same query.
	udp := NewStdClient(env.net, "udp", env.stdAddr)
	defer udp.Close()
	udpCost, _ := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := udp.Lookup(ctx, world_HostBind, TypeA)
		return err
	})
	tcpCost, _ := simtime.Measure(context.Background(), func(ctx context.Context) error {
		_, err := c.Lookup(ctx, world_HostBind, TypeA)
		return err
	})
	if tcpCost <= udpCost {
		t.Fatalf("tcp lookup (%v) not dearer than udp (%v)", tcpCost, udpCost)
	}
}

// world_HostBind avoids importing the world package (which imports bind).
const world_HostBind = "fiji.cs.washington.edu"
