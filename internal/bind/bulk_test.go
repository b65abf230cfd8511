package bind

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"testing"

	"hns/internal/store"
)

// Clock-free contracts for the whole-zone paths: seed (parse → LoadRecords
// → journal), ordered walk, checkpoint trigger. Nothing here reads a clock.

// genMetaZone renders a zone file of about n records shaped like the load
// harness's meta zone: per tenant a name-service record, a context record
// and a five-record NSM set, grouped by owner name and sorted.
func genMetaZone(n int) []byte {
	var rrs []RR
	for i := 0; len(rrs) < n; i++ {
		id := fmt.Sprintf("%05d-%04x", i, (i*40503)&0xffff)
		rrs = append(rrs,
			HNSMeta("ns-"+id+".ns.hns", "type=bind", 600),
			HNSMeta("ctx-"+id+".ctx.hns", "ns=ns-"+id, 600))
		for _, kv := range []string{"host=june.cs.washington.edu", "hostctx=hostaddr-bind", "ns=ns-" + id, "port=6320", "suite=udp-net,xdr,sunrpc"} {
			rrs = append(rrs, HNSMeta("nsm-"+id+".nsm.hns", kv, 600))
		}
	}
	var b bytes.Buffer
	if err := WriteZone(&b, rrs); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// coldStart is what `bindd -zone hns -update -records F -data-dir D` does
// before it serves: Boot over fs, seeding a fresh store with zoneFile.
func coldStart(tb testing.TB, fs store.FS, zoneFile []byte) (*Server, *Durable) {
	tb.Helper()
	srv, d, _, err := Boot(BootConfig{Host: "tahoma", Zones: []string{"hns"}, Update: true,
		Store: DurableConfig{FS: fs}, Records: func() ([]byte, error) { return zoneFile, nil }})
	if err != nil {
		tb.Fatal(err)
	}
	return srv, d
}

func TestCanonicalNameOfCanonicalNameDoesNotAllocate(t *testing.T) {
	for _, name := range []string{"nsm-06869-b2c8.nsm.hns", "fiji.cs.washington.edu.", "a"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := CanonicalName(name); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("CanonicalName(%q): %v allocs, want 0", name, n)
		}
	}
}

// The seed path's budget: the file is read once into each zone's arena of
// runs, owner names share a few backing stores, and the journal image is
// one buffer, so nothing is allocated per record or per owner.
func TestColdStartAllocsPerRecord(t *testing.T) {
	const records = 20_000
	zoneFile := genMetaZone(records)
	perRun := testing.AllocsPerRun(3, func() {
		_, d := coldStart(t, store.NewMemFS(), zoneFile)
		d.Close()
	})
	if per := perRun / records; per > 0.5 {
		t.Fatalf("cold start: %.2f allocs per record, want <= 0.5", per)
	}
}

// A load images its zone as a checkpoint does: the 'r' record a seed load
// journals is byte for byte the image a checkpoint taken right after it
// writes, and a shuffled copy of the same file loads to that same image
// and the same records.
func TestLoadImageIsCheckpointImage(t *testing.T) {
	zoneFile := genMetaZone(2_000)
	fs := store.NewMemFS()
	srv, d := coldStart(t, fs, zoneFile)
	loaded := journalImages(t, fs)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	d.Close()
	images := journalImages(t, fs) // the checkpoint pruned the load's
	if lsn, _ := newestCheckpoint(t, fs); lsn == 0 || len(loaded) != 1 || len(images) != 1 || !bytes.Equal(images[0], loaded[0]) {
		t.Fatalf("load journaled %d images, checkpoint %d at lsn %d; the load's is not the checkpoint's", len(loaded), len(images), lsn)
	}
	lines := strings.SplitAfter(string(zoneFile), "\n")
	rand.New(rand.NewSource(5)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	shuffledFS := store.NewMemFS()
	shuffled, d2 := coldStart(t, shuffledFS, []byte(strings.Join(lines, "")))
	d2.Close()
	if got := journalImages(t, shuffledFS); len(got) != 1 || !bytes.Equal(got[0], loaded[0]) {
		t.Fatal("a shuffled copy of the zone file journals a different image")
	}
	if got, want := FormatZoneFile(zoneRRs(shuffled.Zone("hns"))), FormatZoneFile(zoneRRs(srv.Zone("hns"))); got != want || want != string(zoneFile) {
		t.Fatal("a shuffled copy of the zone file loads different records")
	}
}

// A transaction that touches an owner again and again keeps one copy of
// its records, not one per touch: 5 000 adds to one owner, the same
// alternating between two, and a zone file whose owners' lines are
// scattered each allocate a small multiple of what they install and
// leave the zone an arena no larger than twice its bytes held — exactly
// them once an owner was staged twice, or when the arena was given far
// more room than it used, as a multi-zone file's small zone is.
func TestStagingArenaHoldsWhatItInstalls(t *testing.T) {
	lines := strings.SplitAfter(string(genMetaZone(5_000)), "\n")
	rand.New(rand.NewSource(7)).Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	scattered := []byte(strings.Join(lines, ""))
	var adds [2][]Op // to one owner, and alternating between two
	for owners := range adds {
		for i := range 5_000 {
			rr := A(fmt.Sprintf("h%d.hns", i%(owners+1)), fmt.Sprintf("10.0.%d.%d", i>>8, i&255), 600)
			adds[owners] = append(adds[owners], Op{UpdateAdd, rr})
		}
	}
	for _, c := range []struct {
		name  string
		size  int
		stage func(tx *txn) error
		exact bool
	}{
		{"one owner", 256, func(tx *txn) error { _, err := tx.apply(adds[0]); return err }, false},
		{"two owners", 256, func(tx *txn) error { _, err := tx.apply(adds[1]); return err }, true},
		{"room for a whole file", 1 << 20, func(tx *txn) error { _, err := tx.apply(adds[0][:10]); return err }, true},
		{"scattered file", 0, func(tx *txn) error {
			return eachZoneRun(scattered, func(b []byte) string { return string(b) }, func(run []RR) error { return tx.add(run[0].Name, run) })
		}, true},
	} {
		z, _ := NewZone("hns", true)
		var before, after runtime.MemStats
		z.mu.Lock()
		tx := z.begin(c.size)
		runtime.ReadMemStats(&before)
		if err := c.stage(tx); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		tx.commit()
		z.mu.Unlock()
		runtime.ReadMemStats(&after)
		_, held := z.Held()
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(held) {
			t.Errorf("%s: staging %d bytes held allocated %d", c.name, held, alloc)
		}
		if cap(tx.arena) > 2*held || c.exact && cap(tx.arena) != held {
			t.Errorf("%s: the zone keeps an arena of %d bytes for %d held", c.name, cap(tx.arena), held)
		}
	}
}

// journalImages returns the 'r' records of the log on fs, oldest first.
func journalImages(t *testing.T, fs store.FS) [][]byte {
	t.Helper()
	l, err := store.OpenLog(fs, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var images [][]byte
	if err := l.Replay(0, func(_ uint64, payload []byte) error {
		if payload[0] == journalKindReplace {
			images = append(images, bytes.Clone(payload))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return images
}

// loadOneByOne is LoadRecords as N× Add: the per-record loop the bulk
// path replaced, kept here as the behaviour it must reproduce.
func loadOneByOne(s *Server, rrs []RR) error {
	for _, rr := range rrs {
		name, err := CanonicalName(rr.Name)
		if err != nil {
			return err
		}
		z := s.findZone(name)
		if z == nil {
			return fmt.Errorf("bind: no zone for %s", name)
		}
		if err := z.Add(rr); err != nil {
			return err
		}
	}
	return nil
}

// twinServers returns two servers with the same nested zones, each
// pre-loaded with the same few records one Add at a time, so each zone
// has some history.
func twinServers(t *testing.T) (bulk, ref *Server) {
	t.Helper()
	mk := func() *Server {
		s := NewServer("fiji")
		for _, origin := range []string{"hns", "meta.hns"} {
			z, err := NewZone(origin, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.AddZone(z); err != nil {
				t.Fatal(err)
			}
		}
		for _, rr := range []RR{A("h1.hns", "10.0.0.1", 60), cname("alias.hns", "h1.hns", 60), TXT("h2.meta.hns", "t", 60)} {
			if err := loadOneByOne(s, []RR{rr}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	return mk(), mk()
}

// zoneStates renders every zone's serial and records, and with history
// its retained diffs too.
func zoneStates(s *Server, history bool) string {
	var b strings.Builder
	for _, origin := range s.ZoneOrigins() {
		z := s.Zone(origin)
		fmt.Fprintf(&b, "zone %s serial %d\n%s", origin, z.Serial(), FormatZoneFile(zoneRRs(z)))
		if history {
			fmt.Fprintf(&b, "history %s\n", historyOf(z))
		}
	}
	return b.String()
}

func historyOf(z *Zone) string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return fmt.Sprintf("%v (%d bytes)", z.diff, z.diffBytes)
}

// Property: a bulk load is N× Add — same records and serials — when every
// record is acceptable, and the history of each zone it touched restarts
// at the load's final serial, as the one journal image replays. When one
// record is not acceptable it reports the error N× Add would have stopped
// at and leaves every zone, history included, untouched.
func TestLoadRecordsIsNTimesAdd(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		batch := make([]RR, 0, n)
		for len(batch) < n {
			zone := "hns"
			if rng.Intn(3) == 0 {
				zone = "meta.hns"
			}
			name := fmt.Sprintf("h%d.%s", rng.Intn(6), zone)
			switch r := rng.Intn(100); {
			case r < 4:
				batch = append(batch, cname(name, "h1.hns", 60)) // conflicts wherever the name holds anything else
			case r < 6:
				batch = append(batch, A("alias.hns", "10.9.9.9", 60)) // conflicts with the pre-loaded alias
			case r < 7:
				batch = append(batch, A("bad..name.hns", "10.0.0.1", 60))
			case r < 8:
				batch = append(batch, A("h1.elsewhere", "10.0.0.1", 60))
			case r < 9:
				batch = append(batch, TXT(name, " edge", 60))
			case r < 10:
				batch = append(batch, RR{Name: name, Type: TypeTXT, Data: make([]byte, MaxRDataLen+1)})
			case r < 30:
				batch = append(batch, A(strings.ToUpper(name), "10.0.0.1", uint32(rng.Intn(3)))) // duplicates, refreshed
			default:
				// Runs under one owner name, as zone files have them.
				for k := rng.Intn(3); k >= 0 && len(batch) < n; k-- {
					batch = append(batch, RR{Name: name, Type: TypeA, TTL: 60, Data: []byte(fmt.Sprintf("10.0.%d.%d", rng.Intn(4), k))})
				}
			}
		}
		bulk, ref := twinServers(t)
		before := zoneStates(bulk, true)
		serials, histories := map[string]uint32{}, map[string]string{}
		for _, origin := range bulk.ZoneOrigins() {
			serials[origin], histories[origin] = bulk.Zone(origin).Serial(), historyOf(bulk.Zone(origin))
		}
		refErr := loadOneByOne(ref, batch)
		bulkErr := bulk.LoadRecords(batch)
		if (refErr == nil) != (bulkErr == nil) || (refErr != nil && refErr.Error() != bulkErr.Error()) {
			t.Fatalf("seed %d: LoadRecords: %v; N× Add: %v", seed, bulkErr, refErr)
		}
		if bulkErr != nil {
			if got := zoneStates(bulk, true); got != before {
				t.Fatalf("seed %d (err %v): zones after a refused load:\n%s\nwant:\n%s", seed, bulkErr, got, before)
			}
			continue
		}
		if got, want := zoneStates(bulk, false), zoneStates(ref, false); got != want {
			t.Fatalf("seed %d: zones after LoadRecords:\n%s\nwant:\n%s", seed, got, want)
		}
		for _, origin := range bulk.ZoneOrigins() {
			z := bulk.Zone(origin)
			if z.Serial() == serials[origin] {
				if got := historyOf(z); got != histories[origin] {
					t.Fatalf("seed %d: untouched zone %s history %s, want %s", seed, origin, got, histories[origin])
				}
				continue
			}
			if got := historyOf(z); got != "[] (0 bytes)" {
				t.Fatalf("seed %d: zone %s history after the load = %s, want it restarted at serial %d", seed, origin, got, z.Serial())
			}
		}
	}
}

// All (and so WriteZone, transfers and journal images) keeps
// the order a sort of the records by (name, type, data) gives, whatever
// order the records went in.
func TestZoneAllOrderIsRecordSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	z, err := NewZone("z.test", true)
	if err != nil {
		t.Fatal(err)
	}
	var want []RR
	for i := 0; i < 500; i++ {
		rr := RR{
			Name:  fmt.Sprintf("n%d.z.test", rng.Intn(60)),
			Type:  []RRType{TypeA, TypeTXT, TypeHINFO, TypeHNSMeta}[rng.Intn(4)],
			Class: ClassIN, TTL: 60,
			Data: []byte(fmt.Sprintf("d%d", rng.Intn(40))),
		}
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
		if !containsRR(want, rr) {
			want = append(want, rr)
		}
	}
	sort.Slice(want, func(i, j int) bool { // the order as it was specified: a sort of the records
		a, b := want[i], want[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Type != b.Type {
			return a.Type < b.Type
		}
		return string(a.Data) < string(b.Data)
	})
	got := zoneRRs(z)
	if len(got) != len(want) {
		t.Fatalf("All returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("All()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	var viaAll, shuffled bytes.Buffer
	if err := WriteZone(&viaAll, got); err != nil {
		t.Fatal(err)
	}
	rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	if err := WriteZone(&shuffled, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaAll.Bytes(), shuffled.Bytes()) {
		t.Fatal("WriteZone output depends on the order its records arrive in")
	}
}

func containsRR(rrs []RR, rr RR) bool {
	for _, e := range rrs {
		if e.Equal(rr) {
			return true
		}
	}
	return false
}

// newestCheckpoint scans the log on fs for its newest checkpoint: the
// marker's LSN (0 = none) and the bytes of the images after it.
func newestCheckpoint(t *testing.T, fs store.FS) (lsn uint64, images int64) {
	t.Helper()
	l, err := store.OpenLog(fs, store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	err = l.Replay(0, func(at uint64, payload []byte) error {
		switch payload[0] {
		case journalKindCheckpoint:
			lsn, images = at, 0
		case journalKindReplace:
			images += int64(len(payload))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lsn, images
}

// The checkpoint trigger: a seed load is an image, not journal owed;
// after it, checkpoints come once per image's worth (never less than a
// segment's worth) of update bytes; and no reopen ever finds more journal
// than that, plus the record that made the checkpoint due, to replay.
func TestCheckpointOwedByJournalBytes(t *testing.T) {
	const segment = 1024
	cfg := DurableConfig{SegmentBytes: segment}
	fs := store.NewMemFS()
	srv, d := openDurableServer(t, fs, "hns", cfg)
	rrs, err := ParseZoneFile(bytes.NewReader(genMetaZone(140)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadRecords(rrs); err != nil {
		t.Fatal(err)
	}
	seedImage := int64(len(srv.Zone("hns").image()))
	if seedImage < 4*segment {
		t.Fatalf("seed image of %d bytes does not dominate the %d-byte segment; grow the zone", seedImage, segment)
	}
	ctx := context.Background()
	flip := HNSMeta("h0.ctx.hns", "ns=bind-cs", 600)
	update := func(i int) int64 {
		t.Helper()
		op := uint32(UpdateAdd)
		if i%2 == 1 {
			op = UpdateRemove
		}
		rcode, serial, err := srv.Apply(ctx, "hns", []Op{{op, flip}})
		if err != nil || rcode != RCodeOK {
			t.Fatalf("update %d: %v %v", i, rcode, err)
		}
		return int64(len(encodeUpdate("hns", []Op{{op, flip}}, serial)))
	}
	recBytes := update(0)
	if lsn, _ := newestCheckpoint(t, fs); lsn != 0 {
		t.Fatalf("checkpoint at lsn %d during or right after the seed load", lsn)
	}

	journaled, checkpoints, smallestImage := recBytes, 0, seedImage
	lastLSN := uint64(0)
	for i := 1; i < 1200; i++ {
		journaled += update(i)
		if lsn, image := newestCheckpoint(t, fs); lsn != lastLSN {
			lastLSN = lsn
			checkpoints++
			smallestImage = min(smallestImage, image)
		}
		if i%97 == 0 {
			// A restart at an arbitrary point finds a bounded replay.
			d.Close()
			srv, d = openDurableServer(t, fs, "hns", cfg)
			st := d.Stats()
			if limit := max(st.ImageBytes, segment) + recBytes; st.OwedBytes > limit {
				t.Fatalf("reopen after %d updates: %d journal bytes to replay over a %d-byte image, limit %d",
					i+1, st.OwedBytes, st.ImageBytes, limit)
			}
		}
	}
	d.Close()
	per := max(smallestImage, segment)
	if limit := int((journaled + per - 1) / per); checkpoints == 0 || checkpoints > limit {
		t.Fatalf("%d checkpoints for %d update bytes against images of >= %d bytes: want 1..%d",
			checkpoints, journaled, smallestImage, limit)
	}
}

// rotateFailFS, while broken, fails every Create that would start a
// segment before the current one is full — a checkpoint's rotation, before
// any checkpoint byte is written — and lets a full segment's rotation
// through, so updates go on being journaled.
type rotateFailFS struct {
	*store.MemFS
	segment, frame int64 // segment size, and the frame the test appends
	tail           string
	broken         bool
}

func (f *rotateFailFS) Create(name string) (store.File, error) {
	if f.broken && f.tail != "" && f.MemFS.Size(f.tail)+f.frame <= f.segment {
		return nil, errors.New("create: injected failure")
	}
	f.tail = name
	return f.MemFS.Create(name)
}

// A checkpoint that fails does not fail the update that made it due — the
// record is journaled — but it is counted, and retried a segment's worth
// of journal later rather than on every update.
func TestFailedCheckpointIsCountedAndRetried(t *testing.T) {
	const segment = 256
	rr := func(i int) RR { return A(fmt.Sprintf("h%03d.hns", i), "10.0.0.1", 60) }
	recBytes := int64(len(encodeUpdate("hns", Adds(rr(0)), 0)))
	fs := &rotateFailFS{MemFS: store.NewMemFS(), segment: segment, frame: recBytes + 8, broken: true}
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{Name: "ckpt-fail-test", SegmentBytes: segment})
	defer d.Close()
	failedBefore := d.snapErrs.Value() // the series is process-wide: a -count run repeats this test
	ctx := context.Background()
	add := func(i int) {
		t.Helper()
		rcode, _, err := srv.Apply(ctx, "hns", []Op{{UpdateAdd, rr(i)}})
		if err != nil || rcode != RCodeOK {
			t.Fatalf("update %d with failing checkpoints: %v %v", i, rcode, err)
		}
	}
	// Enough journal for several failed attempts, none of them due just
	// as the tail segment fills: that rotation this FS lets through.
	const updates = 30
	for i := 0; i < updates; i++ {
		add(i)
	}
	journaled := updates * recBytes
	if got, most := d.snapErrs.Value()-failedBefore, journaled/segment; got == 0 || got > most {
		t.Fatalf("%d failed checkpoints counted over %d journal bytes, want 1..%d", got, journaled, most)
	}
	if lsn, _ := newestCheckpoint(t, fs); lsn != 0 {
		t.Fatalf("checkpoint at lsn %d through a failing rotation", lsn)
	}
	if got := d.walBytesG.Value(); got != journaled {
		t.Fatalf("store_wal_bytes_since_checkpoint = %d after %d uncheckpointed bytes", got, journaled)
	}
	fs.broken = false
	for i := updates; ; i++ {
		add(i)
		if lsn, image := newestCheckpoint(t, fs); lsn != 0 {
			// What the log holds past the marker is the checkpoint's
			// image, and nothing owed on top of it.
			if got := d.walBytesG.Value(); got != image || d.owed() != 0 {
				t.Fatalf("store_wal_bytes_since_checkpoint = %d (owed %d) right after a checkpoint of %d image bytes", got, d.owed(), image)
			}
			break
		}
		if int64(i-updates)*recBytes > 2*segment {
			t.Fatal("checkpoint not retried within two segments of journal after the disk healed")
		}
	}
}

// A refused bulk load installs and journals nothing.
func TestLoadRecordsRefusedLeavesNoTrace(t *testing.T) {
	fs := store.NewMemFS()
	srv, d := openDurableServer(t, fs, "hns", DurableConfig{})
	defer d.Close()
	err := srv.LoadRecords([]RR{
		A("h1.hns", "10.0.0.1", 60),
		A("h2.hns", "10.0.0.2", 60),
		cname("h1.hns", "h2.hns", 60), // conflicts with the first record
	})
	if !errors.Is(err, ErrCNAMEConflict) {
		t.Fatalf("LoadRecords = %v, want ErrCNAMEConflict", err)
	}
	if z := srv.Zone("hns"); z.Count() != 0 || z.Serial() != 1 {
		t.Fatalf("refused load left %d records at serial %d", z.Count(), z.Serial())
	}
	if !d.Empty() {
		t.Fatal("refused load was journaled")
	}
}

// Longest-origin routing: a record under a nested zone goes to it, not to
// the zone around it, and each touched zone is journaled.
func TestLoadRecordsRoutesToLongestOrigin(t *testing.T) {
	fs := store.NewMemFS()
	srv, d, err := newCrashServer(t, fs, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.LoadRecords([]RR{
		A("a.hns", "10.0.0.1", 60),
		A("a.meta.hns", "10.0.0.2", 60),
		A("b.hns", "10.0.0.3", 60),
	}); err != nil {
		t.Fatal(err)
	}
	want := serverState(srv)
	if a, b := srv.Zone(crashZoneA).Count(), srv.Zone(crashZoneB).Count(); a != 2 || b != 1 {
		t.Fatalf("routed %d records to %s and %d to %s, want 2 and 1", a, crashZoneA, b, crashZoneB)
	}
	d.Close()
	srv2, d2, err := newCrashServer(t, fs, DurableConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := serverState(srv2); got != want {
		t.Fatalf("recovered:\n%s\nwant:\n%s", got, want)
	}
}

// BenchmarkBinddColdStart is the seed path a durable bindd runs before it
// serves — Boot: open the store, parse, load, journal — on a generated
// 20k-record zone over MemFS. scripts/bench_alloc.sh gates its allocs/op.
func BenchmarkBinddColdStart(b *testing.B) {
	zoneFile := genMetaZone(20_000)
	noGC(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d := coldStart(b, store.NewMemFS(), zoneFile)
		d.Close()
	}
}

// BenchmarkBinddRestart is what the next start of that bindd runs: Boot
// from the newest checkpoint plus a WAL suffix of updates.
func BenchmarkBinddRestart(b *testing.B) {
	fs := store.NewMemFS()
	srv, d := coldStart(b, fs, genMetaZone(20_000))
	if err := d.Snapshot(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if _, _, err := srv.Apply(context.Background(), "hns", []Op{{UpdateAdd, HNSMeta(fmt.Sprintf("h%d.ctx.hns", i), "ns=bind-cs", 600)}}); err != nil {
			b.Fatal(err)
		}
	}
	d.Close()
	noGC(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, d := coldStart(b, fs, nil)
		if n := srv.Zone("hns").Count(); n < 20_500 {
			b.Fatalf("restart recovered %d records", n)
		}
		d.Close()
	}
}

// noGC reports allocations and keeps the collector off for the rest of
// the benchmark. Each GC cycle makes the runtime's unique-map cleanup
// (net/netip's zone map, linked through net) allocate two objects on a
// background goroutine, so with the collector on the count varied with
// how many cycles the timed loop met; off, it is the start-up path's own.
//
// It also starts the threads the loop will want. An op runs longer than
// the scheduler's 10 ms time slice, and a preempted goroutine wakes the
// idle P; with no idle thread to run it, the runtime starts one, and the
// new thread's six objects (its m, two g's and their profiling buffers)
// were counted against the op: five ops read one allocation more each.
// Holding 2×GOMAXPROCS threads at once and releasing them leaves them
// idle for the loop to reuse.
func noGC(b *testing.B) {
	b.ReportAllocs()
	runtime.GC()
	was := debug.SetGCPercent(-1)
	b.Cleanup(func() { debug.SetGCPercent(was) })
	var locked, exited sync.WaitGroup
	release := make(chan struct{})
	for range 2 * runtime.GOMAXPROCS(0) {
		locked.Add(1)
		exited.Add(1)
		go func() {
			defer exited.Done()
			runtime.LockOSThread()
			locked.Done()
			<-release
			runtime.UnlockOSThread()
		}()
	}
	locked.Wait()
	close(release)
	exited.Wait()
}
