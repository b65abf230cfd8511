package bind

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"hns/internal/metrics"
	"hns/internal/store"
)

// Durable is the journal that makes a bindd crash-safe: every zone
// mutation is appended to a write-ahead log before it is acknowledged,
// and the full zone set is checkpointed whenever the journal recovery
// would replay has outgrown the image it would load (see checkpointDue),
// so recovery work stays within twice an image. A checkpoint is written
// into the log itself: a 'C' marker at the head of a fresh segment, then
// each zone whole as the same 'R' image a bulk load journals; once those
// are synced the segments before the marker are pruned. Opening a Durable
// recovers exactly the acknowledged-update prefix with one replay of the
// log (a torn tail — the unacked final write of a crash — is discarded),
// and each replayed record pins the zone serial the original caller saw.

// DurableConfig configures OpenDurable.
type DurableConfig struct {
	// FS is the directory holding the WAL segments (store.DirFS in the
	// daemon; MemFS/FaultFS in the crash harness).
	FS store.FS
	// Name labels this store's metric series; empty disables metrics.
	Name string
	// SegmentBytes sizes WAL segments (0 = store default). It is also the
	// least journal a checkpoint is ever taken for.
	SegmentBytes int64
}

// RecoveryStats describes what opening the store had to do.
type RecoveryStats struct {
	// SnapshotLSN is the LSN of the newest checkpoint marker replayed
	// (0 = none).
	SnapshotLSN uint64
	// Replayed counts the update and image records applied.
	Replayed int
	// ImageBytes and OwedBytes are the checkpoint trigger's two sides as
	// recovery found them: the full image it loaded (each zone's newest
	// image since the newest marker) and the journal it replayed on top.
	ImageBytes, OwedBytes int64
	// TornBytes is the torn-tail length discarded (unacked final write).
	TornBytes int64
	// Elapsed is the wall-clock recovery time.
	Elapsed time.Duration
}

// Durable journals a Server's zones in a store.Log.
type Durable struct {
	cfg DurableConfig
	log *store.Log

	mu        sync.Mutex
	srv       *Server // checkpoint source once attached
	recovered map[string]*Zone
	order     []*Zone // recovered zones, first seen first
	stats     RecoveryStats
	closed    bool

	// What a recovery starting now would read past the newest checkpoint
	// marker: the journal, and — within it — each zone's newest replace
	// record, which is a full image of the zone and not a delta.
	walBytes int64
	images   map[string]int64
	retryAt  int64 // journal owed at which a failed checkpoint is tried again

	walBytesG   *metrics.Gauge
	snapshots   *metrics.Counter
	snapshotLSN *metrics.Gauge
	snapErrs    *metrics.Counter
}

// OpenDurable opens (or initializes) the store under cfg.FS and recovers
// zone state by replaying the WAL. Interior log damage, and a log with no
// base to replay from, are store.ErrCorrupt; a torn WAL tail is tolerated
// and reported in Stats.
func OpenDurable(cfg DurableConfig) (*Durable, error) {
	t0 := time.Now()
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = store.DefaultSegmentBytes
	}
	log, err := store.OpenLog(cfg.FS, store.LogOptions{
		Name:         cfg.Name,
		SegmentBytes: cfg.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	d := &Durable{cfg: cfg, log: log, recovered: make(map[string]*Zone), images: make(map[string]int64)}
	if err := d.recover(); err != nil {
		log.Close()
		return nil, err
	}
	d.stats.TornBytes = log.Stats().TornBytes
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
		d.walBytesG = reg.Gauge(metrics.Labels("store_wal_bytes_since_checkpoint", "store", cfg.Name))
		d.snapshots = reg.Counter(metrics.Labels("snapshot_total", "store", cfg.Name))
		d.snapshotLSN = reg.Gauge(metrics.Labels("store_snapshot_lsn", "store", cfg.Name))
		d.snapErrs = reg.Counter(metrics.Labels("snapshot_errors_total", "store", cfg.Name))
	}
	d.walBytesG.Set(d.walBytes)
	return d, nil
}

// recover replays the log into the recovery zones. A log pruned past LSN
// 1 has no base but a checkpoint: it replays from its first marker, and
// every image that marker counts must follow it. The records before that
// marker are what an interrupted prune left, and the checkpoint supersedes
// them; with no whole checkpoint the base is lost, and recovery refuses
// rather than replay a suffix of nothing. Any other marker is a no-op.
func (d *Durable) recover() error {
	first := d.log.Stats().FirstLSN
	seeking := first > 1 // before the base checkpoint's marker
	var owed uint32      // images the base checkpoint has yet to show
	err := d.log.Replay(0, func(lsn uint64, payload []byte) error {
		rec, err := decodeJournal(payload)
		if err != nil {
			return fmt.Errorf("%w: lsn %d: %v", store.ErrCorrupt, lsn, err)
		}
		switch {
		case seeking && rec.kind != journalKindCheckpoint:
			return nil
		case seeking:
			seeking, owed = false, rec.zones
		case owed > 0 && rec.kind != journalKindReplace:
			return fmt.Errorf("%w: lsn %d: checkpoint lacks %d zone images", store.ErrCorrupt, lsn, owed)
		case owed > 0:
			owed--
		}
		return d.apply(lsn, rec, len(payload))
	})
	if err == nil && (seeking || owed > 0) {
		err = fmt.Errorf("%w: log starts at lsn %d and holds no whole checkpoint", store.ErrCorrupt, first)
	}
	return err
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

// apply replays one journal record into the recovery zones through
// Zone.Apply, the path the original transaction took, so replay
// reproduces exactly its semantics (CNAME conflicts, duplicate refresh,
// wildcard removal) and rebuilds the zone's history as it did.
// A checkpoint marker only restarts the accounting.
func (d *Durable) apply(lsn uint64, rec journalRec, n int) error {
	if rec.kind == journalKindCheckpoint {
		d.stats.SnapshotLSN = lsn
		d.account("", rec.kind, n)
		return nil
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
		if _, err := z.Apply(rec.ops); err != nil {
			return fmt.Errorf("%w: lsn %d: replaying %s: %v", store.ErrCorrupt, lsn, rec.zone, err)
		}
	case journalKindReplace:
		rrs, err := decodeSets(rec.sets) // restaged, not kept in the log's buffer
		if err == nil {
			err = z.Replace(rrs, rec.serial)
		}
		if err != nil {
			return fmt.Errorf("%w: lsn %d: replaying %s: %v", store.ErrCorrupt, lsn, rec.zone, err)
		}
	}
	// Pin the serial the original caller was told, whatever path the
	// in-memory zone took to get here.
	z.ForceSerial(rec.serial)
	d.stats.Replayed++
	d.account(rec.zone, rec.kind, n)
	return nil
}

// account books one journal record of n bytes, appended or replayed, into
// the checkpoint trigger's state. A checkpoint marker starts it afresh:
// what follows it is all a recovery from it reads.
func (d *Durable) account(zone string, kind byte, n int) {
	switch kind {
	case journalKindCheckpoint:
		d.walBytes, d.retryAt = 0, 0
		clear(d.images)
	case journalKindReplace:
		d.walBytes += int64(n)
		d.images[zone] = int64(n)
	default:
		d.walBytes += int64(n)
	}
	d.walBytesG.Set(d.walBytes)
}

// image is the size of the full image a recovery starting now would load:
// each zone's newest replace record past the newest marker. A replace
// record holds its zone whole, so a seed load journals an image, not
// deltas owed a checkpoint.
func (d *Durable) image() int64 {
	var n int64
	for _, b := range d.images {
		n += b
	}
	return n
}

// owed is the journal that recovery would replay on top of that image.
func (d *Durable) owed() int64 { return d.walBytes - d.image() }

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
func (d *Durable) Empty() bool { return d.log.LastLSN() == 0 }

// Stats reports what recovery did.
func (d *Durable) Stats() RecoveryStats { return d.stats }

// LastLSN reports the newest journaled record's LSN.
func (d *Durable) LastLSN() uint64 { return d.log.LastLSN() }

// LogStats exposes the underlying WAL's shape.
func (d *Durable) LogStats() store.LogStats { return d.log.Stats() }

// Attach makes srv the checkpoint source and routes its mutations through
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

// LogUpdate appends one transaction's record, then maybe checkpoints. The
// record is durable per the fsync policy when this returns nil; an error
// means the caller must not acknowledge.
func (d *Durable) LogUpdate(zone string, ops []Op, serial uint32) error {
	return d.append(zone, encodeUpdate(zone, ops, serial))
}

// LogImage appends a zone's 'R' image: a bulk load or a transfer applied.
func (d *Durable) LogImage(zone string, image []byte) error {
	return d.append(zone, image)
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
			// recovery replays more (or, if one of its frames failed to
			// write, a poisoned log). It stays due and is counted.
			d.snapErrs.Inc()
			d.retryAt = d.owed() + d.cfg.SegmentBytes
		}
	}
	return nil
}

// Snapshot forces a checkpoint now. bindd takes none at shutdown: the
// journal past the checkpoint is what a restart rebuilds each zone's
// history from, so a parting checkpoint would cost every peer behind
// the restart a full transfer. Like a journaled change it holds the
// server's journal lock, so no image holds a change not yet appended.
func (d *Durable) Snapshot() error {
	d.mu.Lock()
	srv := d.srv
	d.mu.Unlock()
	if srv != nil {
		srv.journalMu.Lock()
		defer srv.journalMu.Unlock()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snapshotLocked()
}

// snapshotLocked writes a checkpoint of the attached server's zones into
// the log: a marker at the head of a fresh segment, then each zone's
// image, each synced as every append is; only after that are the
// segments before the marker pruned. Nothing is written until every
// image is known to fit a record, a failed frame write poisons the log
// as any failed append does, and a failed prune leaves segments the
// next recovery replays harmlessly and the next checkpoint prunes. d.mu held; callers of journaled mutations
// are serialized by the server's journal lock, so the images are
// consistent with the log.
func (d *Durable) snapshotLocked() error {
	if d.srv == nil {
		return fmt.Errorf("bind: no server attached for checkpoint")
	}
	var zones []string
	var images [][]byte
	for _, origin := range d.srv.ZoneOrigins() {
		z := d.srv.Zone(origin)
		if z == nil {
			continue
		}
		img := z.image()
		if len(img) > store.MaxRecord {
			return fmt.Errorf("bind: zone %s image of %d bytes exceeds the %d-byte journal record",
				origin, len(img), store.MaxRecord)
		}
		zones, images = append(zones, z.Origin()), append(images, img)
	}
	if err := d.log.Rotate(); err != nil {
		return err
	}
	marker := encodeCheckpoint(len(images))
	lsn, err := d.log.Append(marker)
	if err != nil {
		return err
	}
	d.account("", journalKindCheckpoint, len(marker))
	for i, img := range images {
		if _, err := d.log.Append(img); err != nil {
			return err
		}
		d.account(zones[i], journalKindReplace, len(img))
	}
	d.snapshots.Inc()
	d.snapshotLSN.Set(int64(lsn))
	return d.log.Prune(lsn - 1)
}

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
