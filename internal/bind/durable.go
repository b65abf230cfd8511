package bind

import (
	"bufio"
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hns/internal/metrics"
	"hns/internal/store"
)

// Durable is the ZoneStore that makes a bindd crash-safe: every zone
// mutation is appended to a write-ahead log before it is acknowledged,
// and the full zone set is checkpointed whenever the journal recovery
// would replay has outgrown the image it would load (see checkpointDue),
// so recovery work stays within twice an image. Opening a Durable
// recovers exactly the acknowledged-update prefix: the newest valid
// snapshot is loaded, the WAL is replayed past it (a torn tail — the
// unacked final write of a crash — is discarded), and each replayed
// update pins the zone serial the original caller saw.
//
// Snapshot payloads are the zone-file master format, sectioned per zone:
//
//	zone <origin> serial <serial> records <n>
//	<n WriteZone lines>
//
// so a snapshot is human-readable and reuses the exact ParseZoneFile
// round trip the zone-file loader is tested against.

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// FS is the directory holding WAL segments and snapshots
	// (store.DirFS in the daemon; MemFS/FaultFS in the crash harness).
	FS store.FS
	// Name labels this store's metric series; empty disables metrics.
	Name string
	// Fsync is the WAL flush policy (default store.SyncAlways — only
	// that policy gives the exact-acked-prefix guarantee).
	Fsync store.SyncPolicy
	// FsyncInterval is the flush period under SyncInterval.
	FsyncInterval time.Duration
	// SegmentBytes sizes WAL segments (0 = store default). It is also the
	// least journal a checkpoint is ever taken for.
	SegmentBytes int64
}

// RecoveryStats describes what opening the store had to do.
type RecoveryStats struct {
	// SnapshotLSN is the checkpoint recovery started from (0 = none).
	SnapshotLSN uint64
	// SnapshotsSkipped counts invalid (bitrotted/partial) snapshots
	// passed over to find a valid one.
	SnapshotsSkipped int
	// Replayed counts WAL records applied past the snapshot.
	Replayed int
	// ImageBytes and OwedBytes are the checkpoint trigger's two sides as
	// recovery found them: the full image it loaded (snapshot plus each
	// zone's newest replace record) and the journal it replayed on top.
	ImageBytes, OwedBytes int64
	// TornBytes is the torn-tail length discarded (unacked final write).
	TornBytes int64
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// Durable implements ZoneStore over a store.Log plus snapshots.
type Durable struct {
	cfg DurableConfig
	log *store.Log

	mu        sync.Mutex
	srv       *Server // snapshot source once attached
	recovered map[string]*Zone
	order     []*Zone // recovered zones, first seen first
	snapLSN   uint64
	stats     RecoveryStats
	closed    bool

	// What a recovery starting now would read: the snapshot's payload,
	// the journal past it, and — within that journal — each zone's newest
	// replace record, which is a full image of the zone and not a delta.
	snapBytes int64
	walBytes  int64
	images    map[string]int64
	retryAt   int64 // journal owed at which a failed checkpoint is tried again

	walBytesG *metrics.Gauge
	snapErrs  *metrics.Counter
}

// OpenDurable opens (or initializes) the store under cfg.FS and recovers
// zone state: newest valid snapshot, then WAL replay. Interior log or
// snapshot damage is store.ErrCorrupt; a torn WAL tail is tolerated and
// reported in Stats.
func OpenDurable(cfg DurableConfig) (*Durable, error) {
	t0 := time.Now()
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = 100 * time.Millisecond
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = store.DefaultSegmentBytes
	}
	d := &Durable{cfg: cfg, recovered: make(map[string]*Zone), images: make(map[string]int64)}

	snap, err := store.LatestSnapshot(cfg.FS)
	if err != nil {
		return nil, err
	}
	d.snapLSN = snap.LSN
	d.snapBytes = int64(len(snap.Payload))
	d.stats.SnapshotLSN = snap.LSN
	d.stats.SnapshotsSkipped = snap.Skipped
	if snap.LSN > 0 {
		if err := d.loadSnapshot(snap.Payload); err != nil {
			return nil, err
		}
	}

	log, err := store.OpenLog(cfg.FS, store.LogOptions{
		Name:         cfg.Name,
		Sync:         cfg.Fsync,
		SyncEvery:    cfg.FsyncInterval,
		SegmentBytes: cfg.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	d.log = log
	lst := log.Stats()
	d.stats.TornBytes = lst.TornBytes
	if lst.LastLSN > snap.LSN && lst.FirstLSN > snap.LSN+1 {
		log.Close()
		return nil, fmt.Errorf("%w: wal starts at lsn %d but snapshot covers only %d",
			store.ErrCorrupt, lst.FirstLSN, snap.LSN)
	}
	if err := log.Replay(snap.LSN, d.apply); err != nil {
		log.Close()
		return nil, err
	}
	d.stats.ImageBytes, d.stats.OwedBytes = d.image(), d.owed()
	d.stats.Elapsed = time.Since(t0)
	if cfg.Name != "" {
		reg := metrics.Default()
		reg.Gauge(metrics.Labels("store_recovery_replayed", "store", cfg.Name)).
			Set(int64(d.stats.Replayed))
		reg.Gauge(metrics.Labels("store_recovery_torn_bytes", "store", cfg.Name)).
			Set(d.stats.TornBytes)
		reg.Gauge(metrics.Labels("store_recovery_ms", "store", cfg.Name)).
			Set(d.stats.Elapsed.Milliseconds())
		reg.Gauge(metrics.Labels("store_snapshot_skipped", "store", cfg.Name)).
			Set(int64(snap.Skipped))
		d.walBytesG = reg.Gauge(metrics.Labels("store_wal_bytes_since_checkpoint", "store", cfg.Name))
		d.snapErrs = reg.Counter(metrics.Labels("snapshot_errors_total", "store", cfg.Name))
	}
	d.walBytesG.Set(d.walBytes)
	return d, nil
}

// loadSnapshot parses the sectioned zone-file payload into zones, each
// section's lines straight into the records its zone is replaced with.
func (d *Durable) loadSnapshot(payload []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(payload))
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 6 || f[0] != "zone" || f[2] != "serial" || f[4] != "records" {
			return fmt.Errorf("%w: bad snapshot section header %q", store.ErrCorrupt, sc.Text())
		}
		serial, err := strconv.ParseUint(f[3], 10, 32)
		if err != nil {
			return fmt.Errorf("%w: bad snapshot serial %q", store.ErrCorrupt, f[3])
		}
		n, err := strconv.Atoi(f[5])
		if err != nil || n < 0 || n > len(payload) {
			return fmt.Errorf("%w: bad snapshot record count %q", store.ErrCorrupt, f[5])
		}
		rrs := make([]RR, 0, n)
		prevName := ""
		for i := 0; i < n; i++ {
			if !sc.Scan() {
				return fmt.Errorf("%w: snapshot section %s truncated at record %d", store.ErrCorrupt, f[1], i)
			}
			rr, err := parseZoneLine(bytes.TrimSpace(sc.Bytes()), prevName)
			if err != nil {
				return fmt.Errorf("%w: snapshot zone %s record %d: %v", store.ErrCorrupt, f[1], i, err)
			}
			rrs = append(rrs, rr)
			prevName = rr.Name
		}
		z, err := d.zone(f[1])
		if err != nil {
			return fmt.Errorf("%w: snapshot zone %q: %v", store.ErrCorrupt, f[1], err)
		}
		if err := z.Replace(rrs, uint32(serial)); err != nil {
			return fmt.Errorf("%w: snapshot zone %s: %v", store.ErrCorrupt, f[1], err)
		}
	}
	return sc.Err()
}

// appendSnapshot appends z's snapshot section to b: the header, then the
// ordered walk formatted a line per record, under one read lock so serial,
// count and contents agree.
func (z *Zone) appendSnapshot(b []byte) ([]byte, error) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	owners := z.ordered()
	n, size := 0, 0
	for _, o := range owners {
		n += len(o.rrs)
		for _, rr := range o.rrs {
			size += len(o.name) + len(rr.Data)
		}
	}
	// Beyond name and data a line holds three spaces, a newline, a TTL of
	// at most 10 digits and a type mnemonic of at most 9 bytes.
	b = slices.Grow(b, 64+len(z.origin)+size+n*(4+10+9))
	b = fmt.Appendf(b, "zone %s serial %d records %d\n", z.origin, z.serial, n)
	var scratch []RR
	for _, o := range owners {
		for _, rr := range o.inOrder(&scratch) {
			var err error
			if b, err = appendZoneLine(b, rr); err != nil {
				return b, err
			}
		}
	}
	return b, nil
}

// zone finds or creates the recovery-time zone for origin.
func (d *Durable) zone(origin string) (*Zone, error) {
	if z, ok := d.recovered[origin]; ok {
		return z, nil
	}
	z, err := NewZone(origin, true)
	if err != nil {
		return nil, err
	}
	d.recovered[z.Origin()] = z
	d.order = append(d.order, z)
	return z, nil
}

// apply replays one journal record into the recovery zones through the
// real Zone mutation paths, so replay reproduces exactly the semantics
// (CNAME conflicts, duplicate refresh, wildcard removal) the original
// call had, and rebuilds the zone's history as the original calls did.
func (d *Durable) apply(lsn uint64, payload []byte) error {
	rec, err := decodeJournal(payload)
	if err != nil {
		return fmt.Errorf("%w: lsn %d: %v", store.ErrCorrupt, lsn, err)
	}
	_, existed := d.recovered[rec.zone]
	z, err := d.zone(rec.zone)
	if err != nil {
		return fmt.Errorf("%w: lsn %d: %v", store.ErrCorrupt, lsn, err)
	}
	switch rec.kind {
	case journalKindUpdate:
		// Serials an acked update reported are strictly increasing per
		// zone; a regression in the journal is damage, not history.
		if existed && rec.serial <= z.Serial() {
			return fmt.Errorf("%w: lsn %d: serial %d not after %d for %s",
				store.ErrCorrupt, lsn, rec.serial, z.Serial(), rec.zone)
		}
		switch rec.op {
		case UpdateAdd:
			err = z.Add(rec.rr)
		case UpdateRemove:
			err = z.Remove(rec.rr)
		default:
			err = fmt.Errorf("unknown op %d", rec.op)
		}
		if err != nil {
			return fmt.Errorf("%w: lsn %d: replaying %s: %v", store.ErrCorrupt, lsn, rec.zone, err)
		}
	case journalKindReplace:
		if err := z.Replace(rec.rrs, rec.serial); err != nil {
			return fmt.Errorf("%w: lsn %d: replaying %s: %v", store.ErrCorrupt, lsn, rec.zone, err)
		}
	}
	// Pin the serial the original caller was told, whatever path the
	// in-memory zone took to get here.
	z.ForceSerial(rec.serial)
	d.stats.Replayed++
	d.account(rec.zone, rec.kind, len(payload))
	return nil
}

// account books one journal record of n bytes, appended or replayed, into
// the checkpoint trigger's state.
func (d *Durable) account(zone string, kind byte, n int) {
	d.walBytes += int64(n)
	if kind == journalKindReplace {
		d.images[zone] = int64(n)
	}
	d.walBytesG.Set(d.walBytes)
}

// imagesInWAL is the journal's share of the image: each zone's newest
// replace record past the snapshot. A replace record holds its zone
// whole, so a seed load journals an image, not deltas owed a checkpoint.
func (d *Durable) imagesInWAL() int64 {
	var n int64
	for _, b := range d.images {
		n += b
	}
	return n
}

// image is the size of the full image a recovery starting now would load.
func (d *Durable) image() int64 { return d.snapBytes + d.imagesInWAL() }

// owed is the journal that recovery would replay on top of that image.
func (d *Durable) owed() int64 { return d.walBytes - d.imagesInWAL() }

// checkpointDue is the trigger: checkpoint once the journal owed exceeds
// the image, and never for less than one WAL segment. A checkpoint costs
// time proportional to the image, so it is paid once per image's worth of
// updates — constant per update whatever the zone size — and recovery
// never reads more than about twice an image. After a failed attempt the
// next waits for another segment's worth of journal.
func (d *Durable) checkpointDue() bool {
	owed := d.owed()
	return owed > max(d.image(), d.cfg.SegmentBytes) && owed >= d.retryAt
}

// Zones returns the recovered zones, in first-seen order. They are the
// zones recovery built, not copies: a server takes one over with
// Zone.Adopt, a mirror with Secondary.Restore.
func (d *Durable) Zones() []*Zone {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.order)
}

// Empty reports whether the store held no state at all (fresh data dir).
func (d *Durable) Empty() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapLSN == 0 && d.log.LastLSN() == 0
}

// Stats reports what recovery did.
func (d *Durable) Stats() RecoveryStats { return d.stats }

// LastLSN reports the newest journaled record's LSN.
func (d *Durable) LastLSN() uint64 { return d.log.LastLSN() }

// LogStats exposes the underlying WAL's shape.
func (d *Durable) LogStats() store.LogStats { return d.log.Stats() }

// Attach makes srv the snapshot source and routes its mutations through
// this journal (srv.SetJournal). Call it after overlaying the recovered
// state onto srv's zones; the recovery-time zones are released.
func (d *Durable) Attach(srv *Server) {
	d.mu.Lock()
	d.srv = srv
	d.recovered = nil
	d.order = nil
	d.mu.Unlock()
	srv.SetJournal(d)
}

// LogUpdate implements ZoneStore: append one update record, then maybe
// checkpoint. The record is durable per the fsync policy when this
// returns nil; an error means the caller must not acknowledge.
func (d *Durable) LogUpdate(zone string, op uint32, rr RR, serial uint32) error {
	return d.append(zone, encodeUpdate(zone, op, rr, serial))
}

// LogReplace implements ZoneStore for bulk loads and transfer applies.
func (d *Durable) LogReplace(zone string, serial uint32, rrs []RR) error {
	return d.append(zone, encodeReplace(zone, serial, rrs))
}

func (d *Durable) append(zone string, payload []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("bind: journal closed")
	}
	if _, err := d.log.Append(payload); err != nil {
		return err
	}
	d.account(zone, payload[0], len(payload))
	if d.srv != nil && d.checkpointDue() {
		if err := d.snapshotLocked(); err != nil {
			// The appended record is safe; a failed checkpoint only means
			// recovery replays more. It stays due and is counted.
			d.snapErrs.Inc()
			d.retryAt = d.owed() + d.cfg.SegmentBytes
		}
	}
	return nil
}

// Snapshot forces a checkpoint now. bindd takes none at shutdown: the
// journal past the checkpoint is what a restart rebuilds each zone's
// history from, so a parting checkpoint would cost every peer behind
// the restart a full transfer.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// snapshotLocked checkpoints the attached server's zones at the current
// WAL position, then prunes covered segments and older snapshots. d.mu
// held; callers of journaled mutations are serialized by the server's
// journal lock, so the zone set is consistent with LastLSN.
func (d *Durable) snapshotLocked() error {
	if d.srv == nil {
		return fmt.Errorf("bind: no server attached for snapshot")
	}
	var buf []byte
	for _, origin := range d.srv.ZoneOrigins() {
		z := d.srv.Zone(origin)
		if z == nil {
			continue
		}
		var err error
		if buf, err = z.appendSnapshot(buf); err != nil {
			return err
		}
	}
	lsn := d.log.LastLSN()
	if err := store.WriteSnapshot(d.cfg.FS, d.cfg.Name, lsn, buf); err != nil {
		return err
	}
	d.snapLSN = lsn
	d.snapBytes, d.walBytes, d.retryAt = int64(len(buf)), 0, 0
	clear(d.images)
	d.walBytesG.Set(0)
	if err := d.log.Prune(lsn); err != nil {
		return err
	}
	return store.PruneSnapshots(d.cfg.FS, lsn)
}

// Sync forces the WAL to stable storage regardless of policy.
func (d *Durable) Sync() error { return d.log.Sync() }

// Close flushes and releases the store.
func (d *Durable) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}
