package bind

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hns/internal/hrpc"
	"hns/internal/metrics"
	"hns/internal/store"
	"hns/internal/transport"
)

// openDurableServer builds a Server with one updatable zone over fs and
// attaches a Durable journal, overlaying any recovered state first —
// the same sequence bindd runs at startup.
func openDurableServer(t *testing.T, fs store.FS, origin string, cfg DurableConfig) (*Server, *Durable) {
	t.Helper()
	cfg.FS = fs
	d, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	srv := NewServer("fiji")
	z, err := NewZone(origin, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddZone(z); err != nil {
		t.Fatal(err)
	}
	for _, rz := range d.Zones() {
		target := srv.Zone(rz.Origin())
		if target == nil {
			t.Fatalf("recovered unknown zone %s", rz.Origin())
		}
		if err := target.Adopt(rz); err != nil {
			t.Fatalf("overlay %s: %v", rz.Origin(), err)
		}
	}
	d.Attach(srv)
	return srv, d
}

func TestDurableUpdateSurvivesRestart(t *testing.T) {
	fs := NewCrashFS(t)
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{})
	ctx := context.Background()
	var lastSerial uint32
	for i := 0; i < 20; i++ {
		rcode, serial, err := srv.Update(ctx, "hns", UpdateAdd, A(fmt.Sprintf("h%d.hns", i), fmt.Sprintf("10.0.0.%d", i), 60))
		if err != nil || rcode != RCodeOK {
			t.Fatalf("update %d: %v %v", i, rcode, err)
		}
		if serial <= lastSerial {
			t.Fatalf("serial not monotonic: %d after %d", serial, lastSerial)
		}
		lastSerial = serial
	}
	if rcode, _, err := srv.Update(ctx, "hns", UpdateRemove, RR{Name: "h3.hns", Type: TypeA}); err != nil || rcode != RCodeOK {
		t.Fatalf("remove: %v %v", rcode, err)
	}
	want := srv.Zone("hns").All()
	d.Close()

	srv2, d2 := openDurableServer(t, fs, "hns", DurableConfig{})
	defer d2.Close()
	z := srv2.Zone("hns")
	if z.Serial() != lastSerial+1 {
		t.Fatalf("recovered serial %d, want %d", z.Serial(), lastSerial+1)
	}
	got := z.All()
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

// TestDurableFsyncPerAckedUpdate pins what each flush policy costs at
// the update path: always is exactly one fsync per acked update (the
// exact-acked-prefix guarantee), never leaves all flushing to Close.
func TestDurableFsyncPerAckedUpdate(t *testing.T) {
	const updates = 16
	for policy, want := range map[store.SyncPolicy]int64{store.SyncAlways: updates, store.SyncNever: 0} {
		srv, d := openDurableServer(t, NewCrashFS(t), "hns", DurableConfig{Fsync: policy})
		for i := 0; i < updates; i++ {
			rcode, _, err := srv.Update(context.Background(), "hns", UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60))
			if err != nil || rcode != RCodeOK {
				t.Fatalf("%s: update %d: %v %v", policy, i, rcode, err)
			}
		}
		if got := d.LogStats().Syncs; got != want {
			t.Errorf("%s: %d fsyncs for %d acked updates, want %d", policy, got, updates, want)
		}
		d.Close()
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
		if _, _, err := srv.Update(ctx, "hns", UpdateAdd, rr); err != nil {
			t.Fatal(err)
		}
		biggest = max(biggest, int64(len(encodeUpdate("hns", UpdateAdd, rr, uint32(i+2)))))
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
	ls := d2.LogStats()
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

// A reopen right after a checkpoint finds the trigger state the live store
// held: the images as the image, nothing owed.
func TestDurableReopenAfterCheckpointKeepsAccounting(t *testing.T) {
	fs := NewCrashFS(t)
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{})
	for i := 0; i < 30; i++ {
		if _, _, err := srv.Update(context.Background(), "hns", UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)); err != nil {
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
		if _, _, err := srv.Update(ctx, "hns", UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)); err != nil {
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
		if _, _, err := srv.Update(ctx, "hns", UpdateAdd, A(fmt.Sprintf("h%d.hns", i), "10.0.0.1", 60)); err != nil {
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

func TestDurableJournalFailureMeansNoAck(t *testing.T) {
	mem := NewCrashFS(t)
	plan := store.NewFaultPlan(5)
	ffs := store.NewFaultFS(mem, plan)
	srv, d := openDurableServer(t, ffs, "hns", DurableConfig{})
	defer d.Close()
	ctx := context.Background()
	if _, _, err := srv.Update(ctx, "hns", UpdateAdd, A("a.hns", "10.0.0.1", 60)); err != nil {
		t.Fatal(err)
	}
	plan.CrashAfterWrites(1, true)
	rcode, _, err := srv.Update(ctx, "hns", UpdateAdd, A("b.hns", "10.0.0.2", 60))
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
		if _, _, err := primary.Update(ctx, "repl.test", UpdateAdd, A(fmt.Sprintf("h%d.repl.test", i), "10.0.0.1", 60)); err != nil {
			t.Fatal(err)
		}
	}

	sec, err := NewSecondary(cl, "repl.test", "fiji")
	if err != nil {
		t.Fatal(err)
	}
	// Journal the mirror; the first refresh is a full transfer.
	fs := NewCrashFS(t)
	d, err := OpenDurable(DurableConfig{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(sec.Server())
	sec.SetJournal(d)
	if moved, err := sec.Refresh(ctx); err != nil || !moved {
		t.Fatalf("first refresh: %v %v", moved, err)
	}
	if sec.Refreshes() != 1 {
		t.Fatalf("refreshes = %d", sec.Refreshes())
	}
	wantSerial := sec.Serial()
	d.Close()

	// Restart: recover the mirror from disk, restore, and refresh. The
	// primary hasn't moved, so no transfer happens — the serial probe is
	// enough.
	d2, err := OpenDurable(DurableConfig{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	sec2, err := NewSecondary(cl, "repl.test", "fiji")
	if err != nil {
		t.Fatal(err)
	}
	zones := d2.Zones()
	if len(zones) != 1 || zones[0].Origin() != "repl.test" {
		t.Fatalf("recovered zones %+v", zones)
	}
	if err := sec2.Restore(zones[0]); err != nil {
		t.Fatal(err)
	}
	d2.Attach(sec2.Server())
	sec2.SetJournal(d2)
	if sec2.Serial() != wantSerial {
		t.Fatalf("restored serial %d, want %d", sec2.Serial(), wantSerial)
	}
	if moved, err := sec2.Refresh(ctx); err != nil || moved {
		t.Fatalf("post-restore refresh transferred: moved=%v err=%v", moved, err)
	}
	if sec2.Refreshes() != 0 {
		t.Fatalf("restored secondary paid %d transfers, want 0", sec2.Refreshes())
	}
	// newPrimary preloads 2 records; the 4 updates above make 6.
	if n := sec2.Server().Zone("repl.test").Count(); n != 6 {
		t.Fatalf("restored mirror has %d records, want 6", n)
	}

	// The primary moves: the next refresh transfers and re-journals.
	if _, _, err := primary.Update(ctx, "repl.test", UpdateAdd, A("h9.repl.test", "10.0.0.9", 60)); err != nil {
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
		srv.EnablePush(0)
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
	hc := hrpc.NewClient(net)
	defer hc.Close()
	client := NewHRPCClient(hc, b)
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
		Backoff:  5 * time.Millisecond,
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
	sub.mu.Lock()
	sub.conn.Close()
	sub.mu.Unlock()
	waitFor(t, "subscription inactive", sub, func() bool { return !sub.Active() })
	for i := 0; i < n; i++ {
		if _, _, err := srv.Update(ctx, "repl.test", UpdateAdd, A(fmt.Sprintf("u%d.repl.test", i), "9", 60)); err != nil {
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
