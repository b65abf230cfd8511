package bind

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/push"
	"hns/internal/simtime"
	"hns/internal/transport"
)

// ---- Zone diff log.

func TestDiffLogBasics(t *testing.T) {
	z, _ := NewZone("d.test", true)
	base := z.Serial()
	if err := z.Add(A("a.d.test", "1", 60)); err != nil {
		t.Fatal(err)
	}
	if err := z.Add(A("b.d.test", "2", 60)); err != nil {
		t.Fatal(err)
	}
	if err := z.Remove(RR{Name: "a.d.test", Type: TypeA}); err != nil {
		t.Fatal(err)
	}

	diffs, ok := z.DiffSince(base)
	if !ok || len(diffs) != 3 {
		t.Fatalf("DiffSince(base) = %d recs, ok=%v; want 3, true", len(diffs), ok)
	}
	if op := diffs[0].Ops[0]; len(diffs[0].Ops) != 1 || op.Op != UpdateAdd || op.RR.Name != "a.d.test" {
		t.Fatalf("first diff = %+v", diffs[0])
	}
	if diffs[2].Ops[0].Op != UpdateRemove {
		t.Fatalf("third diff op = %d, want remove", diffs[2].Ops[0].Op)
	}
	for i := 1; i < len(diffs); i++ {
		if diffs[i].Serial <= diffs[i-1].Serial {
			t.Fatalf("serials not increasing: %d then %d", diffs[i-1].Serial, diffs[i].Serial)
		}
	}
	// An up-to-date peer gets an empty-but-ok answer.
	if d, ok := z.DiffSince(z.Serial()); !ok || len(d) != 0 {
		t.Fatalf("DiffSince(current) = %d, ok=%v", len(d), ok)
	}
	// A peer from the future is refused.
	if _, ok := z.DiffSince(z.Serial() + 1); ok {
		t.Fatal("DiffSince accepted a future serial")
	}
	// Partial range: only the tail.
	mid := diffs[0].Serial
	tail, ok := z.DiffSince(mid)
	if !ok || len(tail) != 2 {
		t.Fatalf("DiffSince(mid) = %d recs, ok=%v; want 2, true", len(tail), ok)
	}
}

// TestDiffLogWindowAndResets: the history is the newest whole transactions
// whose 'u' records fit one reply, and only serial movement breaks
// continuity.
func TestDiffLogWindowAndResets(t *testing.T) {
	z, _ := NewZone("d.test", true)
	base := z.Serial()
	data := strings.Repeat("x", MaxRDataLen)
	big := func(i int) RR { return TXT(fmt.Sprintf("n%05d.d.test", i), data, 60) }
	n := replyBudget/updateLen(z.Origin(), Adds(big(0)), base) + 64 // overflows one reply
	for i := 0; i < n; i++ {
		if err := z.Add(big(i)); err != nil {
			t.Fatal(err)
		}
		if z.diffBytes > replyBudget {
			t.Fatalf("after %d adds the history holds %d bytes, over the %d-byte budget", i+1, z.diffBytes, replyBudget)
		}
		// The newest mutation is always servable.
		if diffs, ok := z.DiffSince(z.Serial() - 1); !ok || len(diffs) != 1 || diffs[0].Ops[0].RR.Name != big(i).Name {
			t.Fatalf("after %d adds DiffSince(serial-1) = %v, ok=%v", i+1, diffs, ok)
		}
	}
	// An old peer is pushed to a full transfer; the oldest retained serial
	// is answered in full, in at most a reply, and one record more would
	// not have fit.
	if _, ok := z.DiffSince(base); ok {
		t.Fatal("DiffSince claims continuity past the history")
	}
	oldest := z.diff[0].Serial - 1
	diffs, ok := z.DiffSince(oldest)
	if !ok || len(diffs) != len(z.diff) || diffs[len(diffs)-1].Serial != z.Serial() {
		t.Fatalf("DiffSince(oldest %d) = %d records, ok=%v; want the %d retained", oldest, len(diffs), ok, len(z.diff))
	}
	size := len(encodeDiffs(z.Origin(), diffs))
	if size != z.diffBytes || size > replyBudget || size+updateLen(z.Origin(), Adds(big(0)), z.Serial()+1) <= replyBudget {
		t.Fatalf("the oldest answer is %d bytes (history says %d), want at most %d and within a record of it", size, z.diffBytes, replyBudget)
	}
	if _, ok := z.DiffSince(oldest - 1); ok {
		t.Fatal("DiffSince reaches back past the oldest retained mutation")
	}

	// A transaction straddling the trim point goes whole. While it is the
	// oldest retained it keeps every op; the add that needs room from it
	// drops all of it, though a per-record trim would have kept its tail,
	// and the history then starts at the next transaction.
	txn := Adds(big(n), big(n+1), big(n+2))
	straddler, err := z.Apply(txn)
	if err != nil {
		t.Fatal(err)
	}
	for i := n + 3; z.diff[0].Serial <= straddler; i++ {
		if len(z.diff[0].Ops) != len(txn) && z.diff[0].Serial == straddler {
			t.Fatalf("the history keeps %d of the straddling transaction's %d ops", len(z.diff[0].Ops), len(txn))
		}
		if i > 2*n {
			t.Fatal("the straddling transaction was never trimmed")
		}
		if err := z.Add(big(i)); err != nil {
			t.Fatal(err)
		}
	}
	if z.diff[0].Serial != straddler+1 || z.diffBytes+updateLen(z.Origin(), txn[2:], z.Serial()+1) > replyBudget {
		t.Fatalf("after the trim the history starts at serial %d holding %d bytes; want %d, with room for the transaction's last op",
			z.diff[0].Serial, z.diffBytes, straddler+1)
	}
	if _, ok := z.DiffSince(straddler - 1); ok {
		t.Fatal("DiffSince answers from inside a trimmed transaction")
	}
	if d, ok := z.DiffSince(straddler); !ok || len(encodeDiffs(z.Origin(), d)) != z.diffBytes {
		t.Fatalf("DiffSince(after the straddler) = %d transactions, ok=%v", len(d), ok)
	}
	oldest = z.diff[0].Serial - 1
	diffs, _ = z.DiffSince(oldest)

	// Bookkeeping keeps the history: a same-serial ForceSerial (replay and
	// mirror pins in lockstep) and Adopt (a restarted server taking over
	// a recovered zone).
	z.ForceSerial(z.Serial())
	if d, ok := z.DiffSince(oldest); !ok || len(d) != len(diffs) {
		t.Fatalf("same-serial ForceSerial left %d diffs, ok=%v; want %d", len(d), ok, len(diffs))
	}
	adopted, _ := NewZone("d.test", true)
	if err := adopted.Adopt(z); err != nil {
		t.Fatal(err)
	}
	if d, ok := adopted.DiffSince(oldest); !ok || len(d) != len(diffs) {
		t.Fatalf("adopted zone serves %d diffs, ok=%v; want %d", len(d), ok, len(diffs))
	}
	if _, ok := z.DiffSince(oldest); ok {
		t.Fatal("Adopt left the history behind as well as moving it")
	}

	// Serial movement breaks continuity: a serial-moving ForceSerial and
	// Replace each restart the history where they leave the zone.
	cur := adopted.Serial()
	adopted.ForceSerial(cur + 5)
	if _, ok := adopted.DiffSince(cur); ok {
		t.Fatal("DiffSince survived a serial-moving ForceSerial")
	}
	if err := adopted.Add(A("y.d.test", "1", 60)); err != nil {
		t.Fatal(err)
	}
	if d, ok := adopted.DiffSince(cur + 5); !ok || len(d) != 1 {
		t.Fatalf("history after ForceSerial = %d diffs, ok=%v; want 1", len(d), ok)
	}
	if err := adopted.Replace([]RR{A("x.d.test", "1", 60)}, 100); err != nil {
		t.Fatal(err)
	}
	if _, ok := adopted.DiffSince(99); ok {
		t.Fatal("DiffSince survived Replace")
	}
	if err := adopted.Add(A("z.d.test", "1", 60)); err != nil {
		t.Fatal(err)
	}
	if d, ok := adopted.DiffSince(100); !ok || len(d) != 1 {
		t.Fatalf("history after Replace = %d diffs, ok=%v; want 1", len(d), ok)
	}
}

// ---- IXFR payload codec.

func TestDiffCodecRoundTrip(t *testing.T) {
	in := []DiffRec{
		{Serial: 5, Ops: Adds(A("a.d.test", "1", 60))},
		{Serial: 6, Ops: Removes(TypeA, "a.d.test")},
		{Serial: 9, Ops: append(Removes(TypeHNSMeta, "m.d.test"),
			Adds(HNSMeta("m.d.test", "loc=cluster-7", 30), A("b.d.test", "2", 60))...)},
	}
	payload := encodeDiffs("d.test", in)
	out, err := decodeDiffs("d.test", payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Serial != in[i].Serial || len(out[i].Ops) != len(in[i].Ops) {
			t.Fatalf("transaction %d: got %+v want %+v", i, out[i], in[i])
		}
	}
	if back := encodeDiffs("d.test", out); !bytes.Equal(back, payload) {
		t.Fatalf("re-encoded %x, want %x", back, payload)
	}
}

func TestDiffCodecRejectsMalformed(t *testing.T) {
	good := encodeDiffs("d.test", []DiffRec{
		{Serial: 5, Ops: Adds(A("a.d.test", "1", 60), A("c.d.test", "3", 60))},
		{Serial: 6, Ops: Adds(A("b.d.test", "2", 60))},
	})
	cases := map[string][]byte{
		"truncated":    good[:len(good)-3],
		"wrong kind":   append([]byte{journalKindReplace}, good[1:]...),
		"trailing":     append(append([]byte(nil), good...), 0x01),
		"serial order": encodeDiffs("d.test", []DiffRec{{Serial: 6, Ops: Adds(A("a.d.test", "1", 60))}, {Serial: 6, Ops: Adds(A("b.d.test", "2", 60))}}),
		"no op":        encodeDiffs("d.test", []DiffRec{{Serial: 5}, {Serial: 6, Ops: Adds(A("b.d.test", "2", 60))}}),
		"no op last":   encodeDiffs("d.test", []DiffRec{{Serial: 5, Ops: Adds(A("b.d.test", "2", 60))}, {Serial: 6}}),
		"unknown op":   encodeDiffs("d.test", []DiffRec{{Serial: 5, Ops: []Op{{7, A("b.d.test", "2", 60)}}}}),
	}
	for name, b := range cases {
		if _, err := decodeDiffs("d.test", b); err == nil {
			t.Errorf("%s: decodeDiffs accepted malformed payload", name)
		}
	}
	// Zone mismatch fails whole.
	if _, err := decodeDiffs("other.test", good); err == nil {
		t.Error("decodeDiffs accepted a foreign zone's payload")
	}
}

func FuzzIXFRDecode(f *testing.F) {
	f.Add([]byte("d.test"), encodeDiffs("d.test", []DiffRec{
		{Serial: 5, Ops: Adds(A("a.d.test", "1", 60))},
		{Serial: 7, Ops: []Op{{UpdateRemove, RR{Name: "a.d.test", Type: TypeA, Class: ClassIN}}}},
	}))
	f.Add([]byte("hns"), encodeDiffs("hns", []DiffRec{
		{Serial: 8, Ops: append(Removes(TypeHNSMeta, "q.ns.qc.hns"), Adds(HNSMeta("n.nsm.hns", "host=june", 600))...)},
		{Serial: 9, Ops: Adds(HNSMeta("q.ns.qc.hns", "nsm=n", 600), HNSMeta("n.nsm.hns", "port=1", 600))},
	}))
	f.Add([]byte("z"), []byte{journalKindUpdate, 0, 0, 0})
	f.Add([]byte(""), []byte{})
	for i, body := range []string{goldenUpdateBody, overlongUpdateBody, type65536Body} {
		payload := unhex(f, "752a"+body)
		if _, err := decodeDiffs("hns", payload); (err == nil) != (i == 0) {
			f.Fatalf("seed %x: decode error %v, want accepted %v", payload, err, i == 0)
		}
		f.Add([]byte("hns"), payload)
	}
	f.Fuzz(func(t *testing.T, zone, payload []byte) {
		diffs, err := decodeDiffs(string(zone), payload)
		if err != nil {
			return
		}
		// Accepted payloads re-encode byte-identically (canonical codec)
		// and keep their serial-order invariant.
		for i := 1; i < len(diffs); i++ {
			if diffs[i].Serial <= diffs[i-1].Serial {
				t.Fatalf("accepted non-increasing serials: %+v", diffs)
			}
		}
		out := encodeDiffs(string(zone), diffs)
		if string(out) != string(payload) {
			t.Fatalf("decode/encode not canonical: in=%x out=%x", payload, out)
		}
	})
}

// ---- Server plane over the wire.

// newPushPrimary stands up a primary with push enabled.
func newPushPrimary(t *testing.T) (*Server, *HRPCClient, *transport.Network) {
	t.Helper()
	net := transport.NewNetwork()
	s := NewServer("primary")
	z, err := NewZone("repl.test", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	s.EnablePush()
	if err := s.LoadRecords([]RR{
		A("a.repl.test", "1", 600),
		A("b.repl.test", "2", 600),
	}); err != nil {
		t.Fatal(err)
	}
	ln, b, err := s.ServeHRPC(net, "primary:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hc := hrpc.NewClient(net)
	t.Cleanup(func() { hc.Close() })
	return s, NewHRPCClient(hc, b), net
}

// wireBytesTotal sums every transport_bytes_total series; deltas around
// a call give its wire bytes (the transports count in the process
// registry).
func wireBytesTotal() int64 {
	var total int64
	for _, c := range metrics.Default().Snapshot().Counters {
		if strings.HasPrefix(c.Name, "transport_bytes_total") {
			total += c.Value
		}
	}
	return total
}

func TestTransferDeltaOverWire(t *testing.T) {
	s, client, _ := newPushPrimary(t)
	ctx := context.Background()
	// A zone big enough that a full transfer dwarfs a three-record diff.
	quiet := make([]RR, 400)
	for i := range quiet {
		quiet[i] = A(fmt.Sprintf("q%03d.repl.test", i), "5", 600)
	}
	if err := s.LoadRecords(quiet); err != nil {
		t.Fatal(err)
	}
	before := wireBytesTotal()
	base, rrs, err := client.Transfer(ctx, "repl.test")
	if err != nil || len(rrs) != 402 {
		t.Fatalf("full transfer = %d records, %v", len(rrs), err)
	}
	fullBytes := wireBytesTotal() - before

	for i := 0; i < 3; i++ {
		if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(fmt.Sprintf("u%d.repl.test", i), "9", 60)}}); err != nil {
			t.Fatal(err)
		}
	}
	before = wireBytesTotal()
	serial, diffs, ok, err := client.TransferDelta(ctx, "repl.test", base)
	if err != nil || !ok {
		t.Fatalf("TransferDelta = ok=%v err=%v", ok, err)
	}
	deltaBytes := wireBytesTotal() - before
	if len(diffs) != 3 {
		t.Fatalf("got %d diffs, want 3", len(diffs))
	}
	// The diff is priced by what changed, not by zone size.
	t.Logf("full transfer %d bytes, 3-mutation catch-up %d bytes", fullBytes, deltaBytes)
	if deltaBytes <= 0 || 4*deltaBytes > fullBytes {
		t.Fatalf("catch-up of 3 mutations moved %d bytes vs %d for the full transfer, want at most a quarter",
			deltaBytes, fullBytes)
	}
	if serial != s.Zone("repl.test").Serial() {
		t.Fatalf("serial %d != zone serial %d", serial, s.Zone("repl.test").Serial())
	}
	// Up to date: empty diff, still ok.
	if _, diffs, ok, err := client.TransferDelta(ctx, "repl.test", serial); err != nil || !ok || len(diffs) != 0 {
		t.Fatalf("current TransferDelta = %d diffs ok=%v err=%v", len(diffs), ok, err)
	}
	// Unknown zone refuses.
	if _, _, ok, err := client.TransferDelta(ctx, "nope.test", 1); ok || err == nil {
		t.Fatalf("unknown zone: ok=%v err=%v", ok, err)
	}
}

// pastHistory moves s's zone on by updates, then by a bulk load, which
// restarts the history at its final serial: a peer at the zone's serial
// before the call is behind the history afterwards. It returns the names
// it added, the load's last.
func pastHistory(t *testing.T, s *Server, prefix string) []string {
	t.Helper()
	var names []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("%s%d.repl.test", prefix, i)
		if _, _, err := s.Apply(context.Background(), "repl.test", []Op{{UpdateAdd, A(name, "1", 60)}}); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	name := prefix + "-load.repl.test"
	if err := s.LoadRecords([]RR{A(name, "1", 60)}); err != nil {
		t.Fatal(err)
	}
	return append(names, name)
}

func TestTransferDeltaFallsBackPastWindow(t *testing.T) {
	s, client, _ := newPushPrimary(t)
	ctx := context.Background()
	base, _ := client.Serial(ctx, "repl.test")
	pastHistory(t, s, "w")
	_, _, ok, err := client.TransferDelta(ctx, "repl.test", base)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("TransferDelta claimed continuity past the history")
	}
	// "Take a full transfer" is honest: the full transfer has everything.
	serial, rrs, err := client.Transfer(ctx, "repl.test")
	if err != nil || len(rrs) != 6 || serial != s.Zone("repl.test").Serial() {
		t.Fatalf("fallback full transfer = %d records at serial %d, %v", len(rrs), serial, err)
	}
}

// TestTransferDeltaFitsFrame: however many updates a zone takes, a delta
// over a real socket fits one frame. Updates whose 'u' records outgrow a
// reply leave the oldest behind the history — that peer is told to take a
// full transfer — while the oldest serial still retained gets the whole
// history in one reply.
func TestTransferDeltaFitsFrame(t *testing.T) {
	net := transport.NewNetwork()
	s := NewServer("primary")
	z, err := NewZone("repl.test", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddZone(z); err != nil {
		t.Fatal(err)
	}
	ln, b, err := hrpc.Serve(net, s.HRPCServer(), hrpc.SuiteRawNet, "primary", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hc := hrpc.NewClient(net)
	defer hc.Close()
	client := NewHRPCClient(hc, b)

	ctx := context.Background()
	base := z.Serial()
	data := strings.Repeat("t", MaxRDataLen)
	total := 0
	for i := 0; total <= replyBudget; i++ {
		rr := TXT(fmt.Sprintf("owner-%06d.repl.test", i), data, 600)
		_, serial, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, rr}})
		if err != nil {
			t.Fatal(err)
		}
		total += updateLen("repl.test", Adds(rr), serial)
	}
	z.mu.RLock()
	oldest, retained := z.diff[0].Serial-1, len(z.diff)
	z.mu.RUnlock()

	rx := tcpNetBytes("rx")
	serial, diffs, ok, err := client.TransferDelta(ctx, "repl.test", oldest)
	if err != nil || !ok || len(diffs) != retained || serial != z.Serial() {
		t.Fatalf("TransferDelta(oldest retained %d) = %d diffs at serial %d, ok=%v, err=%v; want %d at %d",
			oldest, len(diffs), serial, ok, err, retained, z.Serial())
	}
	if got := tcpNetBytes("rx") - rx; got > transport.MaxFrame {
		t.Fatalf("the delta came back in %d bytes, more than a %d-byte frame", got, transport.MaxFrame)
	}
	if _, _, ok, err := client.TransferDelta(ctx, "repl.test", base); ok || err != nil {
		t.Fatalf("TransferDelta(base) past %d bytes of updates = ok=%v, err=%v; want a clean fallback", total, ok, err)
	}
}

// ---- Subscription end to end.

// notifyRecorder collects notifications thread-safely, and signals every
// one it records the way Subscriber.Changed does.
type notifyRecorder struct {
	mu      sync.Mutex
	names   []string
	serials []uint32
	resets  int
	changed chan struct{} // nil until a waiter asks
}

func (r *notifyRecorder) onNotify(n push.Notification) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names = append(r.names, strings.Join(n.Names, " "))
	r.serials = append(r.serials, n.Serial)
	r.signalLocked()
}

func (r *notifyRecorder) onReset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resets++
	r.signalLocked()
}

func (r *notifyRecorder) Changed() <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.changed == nil {
		r.changed = make(chan struct{})
	}
	return r.changed
}

func (r *notifyRecorder) signalLocked() {
	if r.changed != nil {
		close(r.changed)
		r.changed = nil
	}
}

func (r *notifyRecorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

func (r *notifyRecorder) serialsSeen() []uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint32(nil), r.serials...)
}

func (r *notifyRecorder) resetCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resets
}

// waitFor blocks until cond holds, checking it again at each change c
// signals: a condition gate, not a poll.
func waitFor(t *testing.T, what string, c interface{ Changed() <-chan struct{} }, cond func() bool) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		changed := c.Changed()
		if cond() {
			return
		}
		select {
		case <-changed:
		case <-timeout:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func TestSubscribeDeliversNotify(t *testing.T) {
	s, client, _ := newPushPrimary(t)
	rec := &notifyRecorder{}
	sub := NewSubscriber(client, SubscribeConfig{
		Zone:     "repl.test",
		OnNotify: rec.onNotify,
		Metrics:  metrics.Discard,
	})
	sub.Start()
	defer sub.Close()
	waitFor(t, "subscription active", sub, sub.Active)

	ctx := context.Background()
	if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A("hot.repl.test", "7", 60)}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "notify delivery", rec, func() bool { return len(rec.snapshot()) >= 1 })
	if got := rec.snapshot(); got[0] != "hot.repl.test" {
		t.Fatalf("notified name %q, want hot.repl.test", got[0])
	}
	if sub.LastSerial() != s.Zone("repl.test").Serial() {
		t.Fatalf("LastSerial %d != zone serial %d", sub.LastSerial(), s.Zone("repl.test").Serial())
	}
	if sub.Degraded() {
		t.Fatal("healthy subscription marked degraded")
	}
}

// countingLookuper counts the authority fetches of every client cache
// sharing it.
type countingLookuper struct {
	inner   Lookuper
	fetches atomic.Int64
}

func (c *countingLookuper) Lookup(ctx context.Context, name string, t RRType) ([]RR, error) {
	c.fetches.Add(1)
	return c.inner.Lookup(ctx, name, t)
}

// TestPushVsPollFetchClosedForms pins the fetch economy of the push
// plane exactly, on the fake clock. N clients each re-read a working
// set of W out of M shared names every poll interval while the
// authority updates C names per interval. A TTL-polling fleet (TTL = the
// interval) re-fetches every working set every interval: Rounds·N·W. A
// subscribed fleet (TTL 1000 intervals, so freshness can only come from
// NOTIFY) re-fetches only what changed: Rounds·C·W·N/M, and a fleet
// subscribed with callback delivery exactly as many: every name the
// authority changes was read since its last NOTIFY. The ratio is M/C —
// 16x here — whatever N is.
func TestPushVsPollFetchClosedForms(t *testing.T) {
	const (
		clients    = 64 // N, a multiple of M so every name has exactly W·N/M holders
		hotNames   = 32 // M
		workingSet = 2  // W
		churn      = 2  // C
		rounds     = 3
		interval   = 30 * time.Second
	)
	name := func(i int) string { return fmt.Sprintf("n%02d.repl.test", i%hotNames) }

	arm := func(subscribe, callback bool) int64 {
		s, client, _ := newPushPrimary(t)
		ttl := uint32(interval / time.Second)
		if subscribe {
			ttl *= 1000
		}
		hot := make([]RR, hotNames)
		for i := range hot {
			hot[i] = A(name(i), "1", ttl)
		}
		if err := s.LoadRecords(hot); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		clk := simtime.NewFakeClock(time.Unix(1987, 0))
		authority := &countingLookuper{inner: client}
		fleet := make([]*Resolver, clients)
		subs := make([]*Subscriber, clients)
		for i := range fleet {
			res := NewResolver(authority, ResolverConfig{Clock: clk})
			fleet[i] = res
			if !subscribe {
				continue
			}
			subs[i] = client.Subscribe(SubscribeConfig{
				Zone:     "repl.test",
				Callback: callback,
				OnNotify: func(n push.Notification) {
					for _, name := range n.Names {
						res.Invalidate(name, TypeA)
					}
				},
				OnReset: res.Purge,
				Metrics: metrics.Discard,
			})
			defer subs[i].Close()
		}
		for i, sub := range subs {
			if sub != nil {
				waitFor(t, fmt.Sprintf("subscriber %d active", i), sub, sub.Active)
			}
		}
		readAll := func() {
			for i, res := range fleet {
				for j := 0; j < workingSet; j++ {
					if _, err := res.Lookup(ctx, name(i+j), TypeA); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		readAll() // warm every working set; the comparison is steady state
		authority.fetches.Store(0)

		for r := 0; r < rounds; r++ {
			for k := 0; k < churn; k++ {
				rcode, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(name(r*churn+k), "1", ttl)}})
				if err != nil || rcode != RCodeOK {
					t.Fatalf("churn update: %v, %v", rcode, err)
				}
			}
			for _, sub := range subs {
				if sub != nil {
					syncOrFail(t, sub)
				}
			}
			clk.Advance(interval + time.Nanosecond)
			readAll()
		}
		return authority.fetches.Load()
	}

	poll, pushed, called := arm(false, false), arm(true, false), arm(true, true)
	if want := int64(rounds * clients * workingSet); poll != want {
		t.Errorf("polling fleet made %d authority fetches, want Rounds·N·W = %d", poll, want)
	}
	if want := int64(rounds * churn * workingSet * clients / hotNames); pushed != want {
		t.Errorf("subscribed fleet made %d authority fetches, want Rounds·C·W·N/M = %d", pushed, want)
	}
	if called != pushed {
		t.Errorf("callback fleet made %d authority fetches, want the subscribed fleet's %d", called, pushed)
	}
	if poll != pushed*hotNames/churn {
		t.Errorf("fetch ratio %d/%d, want M/C = %d", poll, pushed, hotNames/churn)
	}
}

// TestSubscribeResubscribeCatchUp is the crash-consistency guarantee:
// kill the connection mid-stream, mutate the zone while the subscriber
// is dark, and verify the resubscribe-with-serial IXFR replays every
// missed invalidation — zero lost, none duplicated.
func TestSubscribeResubscribeCatchUp(t *testing.T) {
	s, client, net := newPushPrimary(t)
	client, dials := countDials(t, net, client.b)
	rec := &notifyRecorder{}
	sub := NewSubscriber(client, SubscribeConfig{
		Zone:     "repl.test",
		OnNotify: rec.onNotify,
		OnReset:  rec.onReset,
		Metrics:  metrics.Discard,
	})
	sub.Start()
	defer sub.Close()
	waitFor(t, "subscription active", sub, sub.Active)

	ctx := context.Background()
	if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A("live.repl.test", "1", 60)}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "live notify", rec, func() bool { return len(rec.snapshot()) >= 1 })

	// Kill the mux conn mid-stream.
	dials.kill(t)
	waitFor(t, "subscription inactive", sub, func() bool { return !sub.Active() })

	// Three updates land while the subscriber is dark.
	missed := []string{"m1.repl.test", "m2.repl.test", "m3.repl.test"}
	for _, name := range missed {
		if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(name, "1", 60)}}); err != nil {
			t.Fatal(err)
		}
	}

	// The subscriber redials, resubscribes with its last serial, and the
	// IXFR catch-up replays exactly the missed names.
	waitFor(t, "catch-up", rec, func() bool { return len(rec.snapshot()) >= 1+len(missed) })
	got := rec.snapshot()
	for i, name := range missed {
		if got[1+i] != name {
			t.Fatalf("catch-up replay = %v, want suffix %v", got[1:], missed)
		}
	}
	if rec.resetCount() != 0 {
		t.Fatal("catch-up within the history must not reset")
	}
	if sub.LastSerial() != s.Zone("repl.test").Serial() {
		t.Fatalf("LastSerial %d != zone serial %d after catch-up", sub.LastSerial(), s.Zone("repl.test").Serial())
	}
	waitFor(t, "subscription re-active", sub, sub.Active)

	// And live pushes flow again on the new connection.
	if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A("post.repl.test", "1", 60)}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-catch-up notify", rec, func() bool {
		snap := rec.snapshot()
		return len(snap) >= 2+len(missed) && snap[len(snap)-1] == "post.repl.test"
	})
}

// TestSubscribeResetPastWindow: if the outage outlives the zone's
// history, the subscriber must signal a reset instead of silently missing
// invalidations.
func TestSubscribeResetPastWindow(t *testing.T) {
	s, client, net := newPushPrimary(t)
	client, dials := countDials(t, net, client.b)
	rec := &notifyRecorder{}
	sub := NewSubscriber(client, SubscribeConfig{
		Zone:     "repl.test",
		OnNotify: rec.onNotify,
		OnReset:  rec.onReset,
		Metrics:  metrics.Discard,
	})
	sub.Start()
	defer sub.Close()
	waitFor(t, "subscription active", sub, sub.Active)

	dials.kill(t)
	waitFor(t, "subscription inactive", sub, func() bool { return !sub.Active() })

	pastHistory(t, s, "o")
	waitFor(t, "reset", rec, func() bool { return rec.resetCount() > 0 })
	waitFor(t, "subscription re-active", sub, sub.Active)
	if sub.LastSerial() != s.Zone("repl.test").Serial() {
		t.Fatalf("LastSerial %d != zone serial %d after reset", sub.LastSerial(), s.Zone("repl.test").Serial())
	}
}

// TestSubscribeDegradesWithoutPushPlane: a server without EnablePush
// refuses, and the subscriber latches degraded instead of retrying.
func TestSubscribeDegradesWithoutPushPlane(t *testing.T) {
	_, client, _ := newPrimary(t) // no EnablePush
	sub := NewSubscriber(client, SubscribeConfig{
		Zone:    "repl.test",
		Metrics: metrics.Discard,
	})
	sub.Start()
	defer sub.Close()
	waitFor(t, "degraded latch", sub, sub.Degraded)
	if sub.Active() {
		t.Fatal("degraded subscriber claims active")
	}
}

// TestTableOverflowDegradesSubscriber: a full subscriber table refuses
// the subscription and the client latches degraded (polls instead).
func TestTableOverflowDegradesSubscriber(t *testing.T) {
	s, client, _ := newPushPrimary(t)
	// Fill the push plane's table but for one slot.
	tab, filler := s.pushTab.Load(), make(idleSink)
	defer close(filler)
	for i := 0; i < push.DefaultMaxSubscribers-1; i++ {
		if _, ok := tab.Add(push.Subscription{Zone: "other.test"}, filler); !ok {
			t.Fatalf("filler subscription %d refused", i)
		}
	}
	first := NewSubscriber(client, SubscribeConfig{
		Zone:    "repl.test",
		Metrics: metrics.Discard,
	})
	first.Start()
	defer first.Close()
	waitFor(t, "first subscriber active", first, first.Active)

	second := NewSubscriber(client, SubscribeConfig{
		Zone:    "repl.test",
		Metrics: metrics.Discard,
	})
	second.Start()
	defer second.Close()
	waitFor(t, "second subscriber degraded", second, second.Degraded)
}

// idleSink is a push sink that swallows every frame; its connection
// closes when the channel does.
type idleSink chan struct{}

func (idleSink) Push([]byte) error       { return nil }
func (s idleSink) Done() <-chan struct{} { return s }

// ---- Secondary over IXFR.

func TestSecondaryRefreshesIncrementally(t *testing.T) {
	s, client, _ := newPushPrimary(t)
	sec, err := NewSecondary(client, "repl.test", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Cold start: full transfer (serial 0 cannot prove continuity).
	if changed, err := sec.Refresh(ctx); err != nil || !changed {
		t.Fatalf("cold refresh = %v, %v", changed, err)
	}
	if sec.DeltaRefreshes() != 0 {
		t.Fatal("cold refresh should be full, not incremental")
	}

	// Incremental: one add, one remove.
	if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A("inc.repl.test", "5", 60)}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateRemove, RR{Name: "a.repl.test", Type: TypeA, Class: ClassIN}}}); err != nil {
		t.Fatal(err)
	}
	changed, err := sec.Refresh(ctx)
	if err != nil || !changed {
		t.Fatalf("delta refresh = %v, %v", changed, err)
	}
	if sec.DeltaRefreshes() != 1 {
		t.Fatalf("DeltaRefreshes = %d, want 1", sec.DeltaRefreshes())
	}
	if sec.Serial() != s.Zone("repl.test").Serial() {
		t.Fatalf("mirror serial %d != primary %d", sec.Serial(), s.Zone("repl.test").Serial())
	}
	if rcode, rrs := sec.Server().Query(ctx, "inc.repl.test", TypeA); rcode != RCodeOK || len(rrs) != 1 {
		t.Fatalf("added record not mirrored: %v %v", rcode, rrs)
	}
	if rcode, _ := sec.Server().Query(ctx, "a.repl.test", TypeA); rcode != RCodeNXDomain {
		t.Fatalf("removed record survives on mirror: %v", rcode)
	}

	// The incremental path must be far cheaper than re-copying the zone.
	// Grow the zone by a bulk load (which restarts the history, forcing
	// one full resync), then measure a one-record delta refresh against
	// the full-zone cost.
	var bulk []RR
	for i := 0; i < 300; i++ {
		bulk = append(bulk, A(fmt.Sprintf("bulk%d.repl.test", i), "1", 600))
	}
	if err := s.LoadRecords(bulk); err != nil {
		t.Fatal(err)
	}
	if _, err := sec.Refresh(ctx); err != nil { // full: the load restarted the history
		t.Fatal(err)
	}
	if _, _, err := s.Apply(ctx, "repl.test", []Op{{UpdateAdd, A("one.repl.test", "1", 60)}}); err != nil {
		t.Fatal(err)
	}
	cost, err := simtime.Measure(ctx, func(ctx context.Context) error {
		changed, err := sec.Refresh(ctx)
		if err == nil && !changed {
			t.Error("delta refresh saw no change")
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if sec.DeltaRefreshes() != 2 {
		t.Fatalf("DeltaRefreshes = %d, want 2", sec.DeltaRefreshes())
	}
	fullCost := simtime.ZoneXfer(sec.Server().Zone("repl.test").Count())
	if cost >= fullCost/2 {
		t.Fatalf("delta refresh cost %v not ≪ full transfer %v", cost, fullCost)
	}
}

func TestSecondaryFallsBackPastWindow(t *testing.T) {
	s, client, _ := newPushPrimary(t)
	sec, err := NewSecondary(client, "repl.test", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sec.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	added := pastHistory(t, s, "f")
	changed, err := sec.Refresh(ctx)
	if err != nil || !changed {
		t.Fatalf("fallback refresh = %v, %v", changed, err)
	}
	if sec.DeltaRefreshes() != 0 {
		t.Fatal("refresh past the history must fall back to a full transfer")
	}
	// Contents converge regardless.
	for _, name := range added {
		if rcode, _ := sec.Server().Query(ctx, name, TypeA); rcode != RCodeOK {
			t.Fatalf("fallback did not converge on %s: %v", name, rcode)
		}
	}
	if sec.Serial() != s.Zone("repl.test").Serial() {
		t.Fatalf("mirror serial %d != primary %d", sec.Serial(), s.Zone("repl.test").Serial())
	}
}

// TestSecondaryRepublishesAndChains: a mirror republishes each transaction
// it applies as the one NOTIFY the primary sent, naming what it touched at
// the primary's serial, and keeps the history those transactions extend,
// so a mirror of the mirror refreshes by delta too.
func TestSecondaryRepublishesAndChains(t *testing.T) {
	s, client, net := newPushPrimary(t)
	ctx := context.Background()
	a, err := NewSecondary(client, "repl.test", "mirror-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	a.Server().EnablePush()
	ln, binding, err := a.Server().ServeHRPC(net, "mirror-a:bind-hrpc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hc := hrpc.NewClient(net)
	defer hc.Close()
	fromA := NewHRPCClient(hc, binding)

	rec := &notifyRecorder{}
	sub := NewSubscriber(fromA, SubscribeConfig{
		Zone:     "repl.test",
		OnNotify: rec.onNotify,
		Metrics:  metrics.Discard,
	})
	sub.Start()
	defer sub.Close()
	waitFor(t, "subscription to the mirror active", sub, sub.Active)

	b, err := NewSecondary(fromA, "repl.test", "mirror-b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	txns := [][]string{{"c0.repl.test", "c1.repl.test"}, {"c2.repl.test"}, {"c3.repl.test", "c4.repl.test", "c5.repl.test"}}
	var names []string
	var serials []uint32
	for _, txn := range txns {
		var ops []Op
		for _, name := range txn {
			ops = append(ops, Adds(A(name, "1", 60), A(name, "2", 60))...)
		}
		_, serial, err := s.Apply(ctx, "repl.test", ops)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, strings.Join(txn, " "))
		serials = append(serials, serial)
	}
	if moved, err := a.Refresh(ctx); err != nil || !moved || a.DeltaRefreshes() != 1 {
		t.Fatalf("mirror A refresh = moved %v, %v, %d deltas; want one delta", moved, err, a.DeltaRefreshes())
	}
	waitFor(t, "the mirror's NOTIFYs", rec, func() bool { return sub.LastSerial() >= serials[len(serials)-1] })
	if got, gotSerials := rec.snapshot(), rec.serialsSeen(); fmt.Sprintf("%q %v", got, gotSerials) != fmt.Sprintf("%q %v", names, serials) {
		t.Fatalf("mirror subscriber saw %q at %v, want one NOTIFY per transaction: %q at %v", got, gotSerials, names, serials)
	}

	if moved, err := b.Refresh(ctx); err != nil || !moved {
		t.Fatalf("mirror B refresh = moved %v, %v", moved, err)
	}
	if b.DeltaRefreshes() != 1 || b.Serial() != s.Zone("repl.test").Serial() {
		t.Fatalf("mirror B took %d deltas to serial %d; want 1 delta to the primary's %d",
			b.DeltaRefreshes(), b.Serial(), s.Zone("repl.test").Serial())
	}
}
