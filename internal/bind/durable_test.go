package bind

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/store"
	"hns/internal/transport"
)

// openDurableServer boots a Server with one updatable zone over fs, as
// bindd does.
func openDurableServer(t *testing.T, fs store.FS, origin string, cfg DurableConfig) (*Server, *Durable) {
	t.Helper()
	cfg.FS = fs
	srv, d, _, err := Boot(BootConfig{Host: "fiji", Zones: []string{origin}, Update: true, Store: cfg})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return srv, d
}

func TestDurableUpdateSurvivesRestart(t *testing.T) {
	fs := NewCrashFS(t)
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{})
	ctx := context.Background()
	var lastSerial uint32
	for i := 0; i < 20; i++ {
		rcode, serial, err := srv.Apply(ctx, "hns", []Op{{UpdateAdd, A(fmt.Sprintf("h%d.hns", i), fmt.Sprintf("10.0.0.%d", i), 60)}})
		if err != nil || rcode != RCodeOK {
			t.Fatalf("update %d: %v %v", i, rcode, err)
		}
		if serial <= lastSerial {
			t.Fatalf("serial not monotonic: %d after %d", serial, lastSerial)
		}
		lastSerial = serial
	}
	if rcode, _, err := srv.Apply(ctx, "hns", []Op{{UpdateRemove, RR{Name: "h3.hns", Type: TypeA}}}); err != nil || rcode != RCodeOK {
		t.Fatalf("remove: %v %v", rcode, err)
	}
	want := zoneRRs(srv.Zone("hns"))
	d.Close()

	srv2, d2 := openDurableServer(t, fs, "hns", DurableConfig{})
	defer d2.Close()
	z := srv2.Zone("hns")
	if z.Serial() != lastSerial+1 {
		t.Fatalf("recovered serial %d, want %d", z.Serial(), lastSerial+1)
	}
	got := zoneRRs(z)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) || got[i].TTL != want[i].TTL {
			t.Fatalf("record %d: got %v want %v", i, got[i], want[i])
		}
	}
	if st := d2.Stats(); st.Replayed != 21 {
		t.Fatalf("replayed %d, want 21: %+v", st.Replayed, st)
	}
}

// NewCrashFS returns a MemFS (the crash harness's disk image); a helper
// so durable tests read naturally.
func NewCrashFS(t *testing.T) *store.MemFS {
	t.Helper()
	return store.NewMemFS()
}

func TestDurableLoadRecordsJournaled(t *testing.T) {
	fs := NewCrashFS(t)
	srv, d := openDurableServer(t, fs, "cs.washington.edu", DurableConfig{})
	if !d.Empty() {
		t.Fatal("fresh store not empty")
	}
	rrs := []RR{
		A("fiji.cs.washington.edu", "10.0.0.1", 600),
		HINFO("fiji.cs.washington.edu", "MicroVAX-II/Unix", 600),
	}
	if err := srv.LoadRecords(rrs); err != nil {
		t.Fatal(err)
	}
	d.Close()

	srv2, d2 := openDurableServer(t, fs, "cs.washington.edu", DurableConfig{})
	defer d2.Close()
	if d2.Empty() {
		t.Fatal("store empty after journaled load")
	}
	if n := srv2.Zone("cs.washington.edu").Count(); n != 2 {
		t.Fatalf("recovered %d records, want 2", n)
	}
}

// TestDurableFsyncPerAckedUpdate pins what the update path costs: each
// acked update has been synced exactly once by the time its ack returns
// (the exact-acked-prefix guarantee), and no more.
func TestDurableFsyncPerAckedUpdate(t *testing.T) {
	srv, d := openDurableServer(t, NewCrashFS(t), "hns", DurableConfig{})
	defer d.Close()
	base := d.log.Stats().Syncs
	for i := int64(1); i <= 16; i++ {
		rcode, _, err := srv.Apply(context.Background(), "hns", []Op{{UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)}})
		if err != nil || rcode != RCodeOK {
			t.Fatalf("update %d: %v %v", i, rcode, err)
		}
		if got := d.log.Stats().Syncs - base; got != i {
			t.Fatalf("%d fsyncs when update %d was acked, want %d", got, i, i)
		}
	}
}

func TestDurableSnapshotBoundsReplay(t *testing.T) {
	const segment = 256
	fs := NewCrashFS(t)
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{SegmentBytes: segment})
	ctx := context.Background()
	var biggest int64
	for i := 0; i < 23; i++ {
		rr := A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)
		if _, _, err := srv.Apply(ctx, "hns", []Op{{UpdateAdd, rr}}); err != nil {
			t.Fatal(err)
		}
		biggest = max(biggest, int64(len(encodeUpdate("hns", Adds(rr), uint32(i+2)))))
	}
	d.Close()

	srv2, d2 := openDurableServer(t, fs, "hns", DurableConfig{SegmentBytes: segment})
	defer d2.Close()
	st := d2.Stats()
	// 23 updates journal some 850 bytes: more than a segment, so at least
	// one checkpoint was taken, and what recovery replays past the newest
	// is at most the journal one image (or one segment) is worth, plus the
	// record that made it due. The checkpoint pruned every segment before
	// its marker, and no further: the log opens at the marker, and
	// recovery replays just what follows it.
	ls := d2.log.Stats()
	if st.SnapshotLSN == 0 || ls.FirstLSN != st.SnapshotLSN || st.Replayed != int(ls.LastLSN-st.SnapshotLSN) {
		t.Fatalf("recovery stats %+v over log %+v, want it to open at a checkpoint and replay what follows", st, ls)
	}
	if limit := max(st.ImageBytes, segment) + biggest; st.OwedBytes > limit {
		t.Fatalf("recovery replayed %d journal bytes over a %d-byte image, limit %d", st.OwedBytes, st.ImageBytes, limit)
	}
	if n := srv2.Zone("hns").Count(); n != 23 {
		t.Fatalf("recovered %d records, want 23", n)
	}
}

// TestDurableSnapshotConcurrentWithUpdates: a forced checkpoint taken while
// updates land never images a change whose record is not yet in the log —
// that record would follow the image at the image's serial — so the log
// always reopens, at the state the updates left.
func TestDurableSnapshotConcurrentWithUpdates(t *testing.T) {
	for round := 0; round < 10; round++ {
		fs := NewCrashFS(t)
		srv, d := openDurableServer(t, fs, "hns", DurableConfig{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := d.Snapshot(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for i := 0; i < 300; i++ {
			if rcode, _, err := srv.Apply(context.Background(), "hns", []Op{{UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)}}); err != nil || rcode != RCodeOK {
				t.Fatalf("round %d update %d: %v %v", round, i, rcode, err)
			}
		}
		wg.Wait()
		z := srv.Zone("hns")
		want := fmt.Sprintf("serial %d\n%s", z.Serial(), FormatZoneFile(zoneRRs(z)))
		d.Close()
		srv2, d2 := openDurableServer(t, fs, "hns", DurableConfig{})
		z2 := srv2.Zone("hns")
		if got := fmt.Sprintf("serial %d\n%s", z2.Serial(), FormatZoneFile(zoneRRs(z2))); got != want {
			t.Fatalf("round %d reopened at %.40q, want %.40q", round, got, want)
		}
		d2.Close()
	}
}

// A reopen right after a checkpoint finds the trigger state the live store
// held: the images as the image, nothing owed.
func TestDurableReopenAfterCheckpointKeepsAccounting(t *testing.T) {
	fs := NewCrashFS(t)
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{})
	for i := 0; i < 30; i++ {
		if _, _, err := srv.Apply(context.Background(), "hns", []Op{{UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	image, owed := d.image(), d.owed()
	if image == 0 || owed != 0 {
		t.Fatalf("live store after a checkpoint: image %d, owed %d", image, owed)
	}
	d.Close()
	_, d2 := openDurableServer(t, fs, "hns", DurableConfig{})
	defer d2.Close()
	if st := d2.Stats(); st.ImageBytes != image || st.OwedBytes != owed {
		t.Fatalf("reopen found image %d, owed %d; the live store held %d, %d", st.ImageBytes, st.OwedBytes, image, owed)
	}
}

func TestDurableTornTailDropsUnacked(t *testing.T) {
	fs := NewCrashFS(t)
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, _, err := srv.Apply(ctx, "hns", []Op{{UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)}}); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	// Simulate a crash mid-append: half a frame at the log's tail.
	f, err := fs.Append("wal-0000000000000001.log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 40, 1, 2})
	f.Close()

	srv2, d2 := openDurableServer(t, fs, "hns", DurableConfig{})
	defer d2.Close()
	st := d2.Stats()
	if st.TornBytes != 6 || st.Replayed != 5 {
		t.Fatalf("recovery stats %+v, want 6 torn bytes and 5 replayed", st)
	}
	if n := srv2.Zone("hns").Count(); n != 5 {
		t.Fatalf("recovered %d records, want 5 (torn record resurrected?)", n)
	}
}

func TestDurableInteriorCorruptionRefusesSilentLoss(t *testing.T) {
	fs := NewCrashFS(t)
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, _, err := srv.Apply(ctx, "hns", []Op{{UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)}}); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	if err := fs.Corrupt("wal-0000000000000001.log", 12); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDurable(DurableConfig{FS: fs}); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("open over corrupt interior: %v, want ErrCorrupt", err)
	}
}

// A data dir the first revision of the record codec wrote — a zone image,
// then a flip's update, their integers fixed-width — is refused whole
// with the unknown kind named, never misread into a zone.
func TestDurableRefusesFirstRevisionLog(t *testing.T) {
	image := "52000000290003686e73000a68302e6374782e686e73ff000001000002580001000a6e733d62696e642d6373"
	update := "550000002a0003686e7300000a68302e6374782e686e73ff00000100000258000c6e733d62696e642d63732d62"
	for kind, payloads := range map[byte][]string{'R': {image, update}, 'U': {update}} {
		fs := NewCrashFS(t)
		l, err := store.OpenLog(fs, store.LogOptions{})
		for _, p := range payloads {
			if err == nil {
				_, err = l.Append(unhex(t, p))
			}
		}
		if err == nil {
			err = l.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurable(DurableConfig{FS: fs})
		if want := fmt.Sprintf("unknown journal record kind %q", kind); !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Errorf("a log opening with a first-revision %q record: OpenDurable = %v, want ErrCorrupt naming %s", kind, err, want)
		}
		if d != nil {
			t.Errorf("a log opening with a first-revision %q record recovered %d zones", kind, len(d.Zones()))
		}
	}
}

func TestDurableJournalFailureMeansNoAck(t *testing.T) {
	mem := NewCrashFS(t)
	plan := store.NewFaultPlan(5)
	ffs := store.NewFaultFS(mem, plan)
	srv, d := openDurableServer(t, ffs, "hns", DurableConfig{})
	defer d.Close()
	ctx := context.Background()
	if _, _, err := srv.Apply(ctx, "hns", []Op{{UpdateAdd, A("a.hns", "10.0.0.1", 60)}}); err != nil {
		t.Fatal(err)
	}
	plan.CrashAfterWrites(1, true)
	rcode, _, err := srv.Apply(ctx, "hns", []Op{{UpdateAdd, A("b.hns", "10.0.0.2", 60)}})
	if err == nil || rcode != RCodeServFail {
		t.Fatalf("update with dead disk acked: %v %v", rcode, err)
	}
	// Restart from the surviving image: only the acked update is there.
	srv2, d2 := openDurableServer(t, mem, "hns", DurableConfig{})
	defer d2.Close()
	if n := srv2.Zone("hns").Count(); n != 1 {
		t.Fatalf("recovered %d records, want 1 (unacked update resurrected?)", n)
	}
}

func TestSecondaryRestoreSkipsColdTransfer(t *testing.T) {
	primary, cl, _ := newPrimary(t)
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, _, err := primary.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(fmt.Sprintf("h%d.repl.test", i), "10.0.0.1", 60)}}); err != nil {
			t.Fatal(err)
		}
	}

	// Journal the mirror; the first refresh is a full transfer.
	fs := NewCrashFS(t)
	mirror := BootConfig{Host: "fiji", Zones: []string{"repl.test"}, Store: DurableConfig{FS: fs}, Primary: cl}
	_, d, sec, err := Boot(mirror)
	if err != nil {
		t.Fatal(err)
	}
	if moved, err := sec.Refresh(ctx); err != nil || !moved {
		t.Fatalf("first refresh: %v %v", moved, err)
	}
	wantSerial := sec.Serial()
	d.Close()

	// Restart: recover the mirror from disk, restore, and refresh. The
	// primary hasn't moved, so no transfer happens — the serial probe is
	// enough.
	_, d2, sec2, err := Boot(mirror)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if sec2.Serial() != wantSerial {
		t.Fatalf("restored serial %d, want %d", sec2.Serial(), wantSerial)
	}
	if moved, err := sec2.Refresh(ctx); err != nil || moved {
		t.Fatalf("post-restore refresh transferred: moved=%v err=%v", moved, err)
	}
	// newPrimary preloads 2 records; the 4 updates above make 6.
	if n := sec2.Server().Zone("repl.test").Count(); n != 6 {
		t.Fatalf("restored mirror has %d records, want 6", n)
	}

	// The primary moves: the next refresh transfers and re-journals.
	if _, _, err := primary.Apply(ctx, "repl.test", []Op{{UpdateAdd, A("h9.repl.test", "10.0.0.9", 60)}}); err != nil {
		t.Fatal(err)
	}
	if moved, err := sec2.Refresh(ctx); err != nil || !moved {
		t.Fatalf("refresh after primary update: moved=%v err=%v", moved, err)
	}
}

// TestDurablePrimaryRestartKeepsHistory is the composed guarantee: no
// missed serial across a resubscribe and a primary restart. A subscriber
// and a secondary hold serial S; the primary takes N updates (too few for
// a checkpoint) while the subscriber is dark, then crashes and recovers
// from its disk image on the same address. The recovered zone answers
// "since S" exactly as before the crash, so the subscriber catches up by
// delta with no reset and the secondary's next refresh is incremental.
func TestDurablePrimaryRestartKeepsHistory(t *testing.T) {
	const n = 10
	const addr = "primary:bind-hrpc"
	fs := NewCrashFS(t)
	net := transport.NewNetwork()
	ctx := context.Background()
	start := func() (*Server, *Durable, transport.Listener, hrpc.Binding) {
		srv, d := openDurableServer(t, fs, "repl.test", DurableConfig{})
		srv.EnablePush()
		ln, b, err := srv.ServeHRPC(net, addr)
		if err != nil {
			t.Fatal(err)
		}
		return srv, d, ln, b
	}

	srv, _, ln, b := start()
	seed := make([]RR, 400)
	for i := range seed {
		seed[i] = A(fmt.Sprintf("q%03d.repl.test", i), "5", 600)
	}
	if err := srv.LoadRecords(seed); err != nil {
		t.Fatal(err)
	}
	client, dials := countDials(t, net, b)
	sec, err := NewSecondary(client, "repl.test", "mirror")
	if err != nil {
		t.Fatal(err)
	}
	before := wireBytesTotal()
	if _, err := sec.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	fullBytes := wireBytesTotal() - before

	reg := metrics.NewRegistry()
	rec := &notifyRecorder{}
	sub := NewSubscriber(client, SubscribeConfig{
		Zone:     "repl.test",
		OnNotify: rec.onNotify,
		OnReset:  rec.onReset,
		Metrics:  reg,
	})
	sub.Start()
	defer sub.Close()
	waitFor(t, "subscription active", sub, sub.Active)
	s0 := srv.Zone("repl.test").Serial()
	if sub.LastSerial() != s0 || sec.Serial() != s0 {
		t.Fatalf("subscriber at %d, secondary at %d; want both at %d", sub.LastSerial(), sec.Serial(), s0)
	}

	// The primary goes dark to the subscriber, takes n updates, and dies
	// without a checkpoint or a Close.
	ln.Close()
	dials.kill(t)
	waitFor(t, "subscription inactive", sub, func() bool { return !sub.Active() })
	for i := 0; i < n; i++ {
		if _, _, err := srv.Apply(ctx, "repl.test", []Op{{UpdateAdd, A(fmt.Sprintf("u%d.repl.test", i), "9", 60)}}); err != nil {
			t.Fatal(err)
		}
	}
	want, ok := srv.Zone("repl.test").DiffSince(s0)
	if !ok || len(want) != n {
		t.Fatalf("pre-crash DiffSince(%d) = %d diffs, ok=%v; want %d", s0, len(want), ok, n)
	}

	srv2, d2, ln2, _ := start()
	defer ln2.Close()
	defer d2.Close()
	if st := d2.Stats(); st.SnapshotLSN != 0 || st.Replayed != 1+n {
		t.Fatalf("recovery %+v; want the seed image and %d updates replayed, no checkpoint", st, n)
	}
	got, ok := srv2.Zone("repl.test").DiffSince(s0)
	if !ok || !bytes.Equal(encodeDiffs("repl.test", got), encodeDiffs("repl.test", want)) {
		t.Fatalf("recovered DiffSince(%d) = %v, ok=%v; want %v", s0, got, ok, want)
	}

	final := srv2.Zone("repl.test").Serial()
	waitFor(t, "catch-up after the restart", sub, func() bool { return sub.LastSerial() == final && sub.Active() })
	if r := reg.Counter("push_client_resets_total").Value(); r != 0 {
		t.Fatalf("subscriber reset %d times across the restart, want 0", r)
	}
	if c := reg.Counter("push_client_catchup_records_total").Value(); c != n {
		t.Fatalf("subscriber caught up %d records, want %d", c, n)
	}

	before = wireBytesTotal()
	if moved, err := sec.Refresh(ctx); err != nil || !moved {
		t.Fatalf("secondary refresh after the restart = moved %v, %v", moved, err)
	}
	deltaBytes := wireBytesTotal() - before
	if sec.DeltaRefreshes() != 1 || sec.Serial() != final {
		t.Fatalf("secondary took %d deltas to serial %d; want 1 to %d", sec.DeltaRefreshes(), sec.Serial(), final)
	}
	t.Logf("full transfer %d bytes, catch-up of %d updates across the restart %d bytes", fullBytes, n, deltaBytes)
	if 4*deltaBytes > fullBytes {
		t.Fatalf("catch-up moved %d bytes against %d for the full transfer, want at most a quarter", deltaBytes, fullBytes)
	}
}

// A recovered zone that a restart does not declare is refused, in both
// modes, rather than served without: the next checkpoint images only the
// declared zones and then prunes, so the undeclared zone's only copy would
// go. A later start that declares it finds it whole.
func TestBootRefusesUndeclaredRecoveredZone(t *testing.T) {
	fs := NewCrashFS(t)
	both := BootConfig{Host: "fiji", Zones: []string{"a.test", "b.test"}, Update: true, Store: DurableConfig{FS: fs}}
	srv, d, _, err := Boot(both)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range []RR{A("h.a.test", "10.0.0.1", 60), A("h.b.test", "10.0.0.2", 60)} {
		if rcode, _, err := srv.Apply(context.Background(), rr.Name[2:], []Op{{UpdateAdd, rr}}); err != nil || rcode != RCodeOK {
			t.Fatalf("update %s: %v %v", rr.Name, rcode, err)
		}
	}
	d.Close()

	onlyA := both
	onlyA.Zones = []string{"a.test"}
	mirrorA := onlyA
	mirrorA.Update, mirrorA.Primary = false, NewHRPCClient(hrpc.NewClient(transport.NewNetwork()), hrpc.Binding{})
	for _, cfg := range []BootConfig{onlyA, mirrorA} {
		_, d, _, err := Boot(cfg)
		if err == nil {
			d.Snapshot()
			d.Close()
			t.Errorf("booted (mirror %v) declaring only a.test over a store holding b.test", cfg.Primary != nil)
		} else if !strings.Contains(err.Error(), "b.test") {
			t.Errorf("refusal does not name the zone: %v", err)
		}
	}

	srv, d, _, err = Boot(both)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if a, b := srv.Zone("a.test").Count(), srv.Zone("b.test").Count(); a != 1 || b != 1 {
		t.Fatalf("after the refused starts a.test holds %d records and b.test %d, want 1 and 1", a, b)
	}
}
