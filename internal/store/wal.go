package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hns/internal/metrics"
)

// The write-ahead log: an ordered sequence of records, each assigned a
// log sequence number (LSN, 1-based, monotonic), laid out across segment
// files named wal-<first-lsn>.log. Each record is framed as
//
//	[4B big-endian payload length][4B CRC32C of payload][payload]
//
// and written with a single Write call, so a crash tears at most the
// final frame. Replay tolerates exactly that: a short or garbled frame
// at the physical tail of the *last* segment is dropped as a torn tail
// (the record was never acknowledged), while any bad frame in the
// interior of the log is ErrCorrupt — those records were acked, and
// silently skipping them would roll back durable state.

// crcTable is the Castagnoli polynomial (CRC32C), the checksum modern
// storage stacks use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// DefaultSegmentBytes is the segment size LogOptions.SegmentBytes
// defaults to.
const DefaultSegmentBytes = 1 << 20

// MaxRecord bounds one record's payload; larger length fields are framing
// damage by definition.
const MaxRecord = 1 << 24

const (
	frameHeader = 8
	segPrefix   = "wal-"
	segSuffix   = ".log"
)

// SyncPolicy is retained only so existing callers of LogOptions.Sync
// keep compiling; the log has one policy, SyncAlways: every record is
// on stable storage before Append returns.
type SyncPolicy int

// SyncAlways is the one fsync policy (see SyncPolicy).
const SyncAlways SyncPolicy = 0

// LogOptions configures a Log.
type LogOptions struct {
	// Name labels the log's metric series (store=Name); empty disables
	// metrics.
	Name string
	// Sync is ignored: every append is synced (see SyncPolicy).
	Sync SyncPolicy
	// SegmentBytes rotates to a new segment once the current one would
	// exceed this size (default 1 MiB).
	SegmentBytes int64
}

// walSeg is one on-disk segment.
type walSeg struct {
	name  string
	first uint64 // LSN of the segment's first record
	count int    // records in the segment
	size  int64  // valid bytes
}

// LogStats is a point-in-time description of the log.
type LogStats struct {
	// FirstLSN is the oldest record still present (LastLSN+1 when the
	// log holds none).
	FirstLSN uint64
	// LastLSN is the newest record's LSN (0 for an empty log).
	LastLSN uint64
	// Segments is the live segment-file count.
	Segments int
	// Syncs counts flushes performed.
	Syncs int64
	// TornBytes is how many trailing bytes Open discarded as a torn
	// tail; TornTail reports whether it discarded any.
	TornBytes int64
	TornTail  bool
}

// Log is the append-only WAL. Safe for concurrent use; records are
// strictly ordered by the internal mutex.
type Log struct {
	fs   FS
	opts LogOptions

	mu       sync.Mutex
	segs     []walSeg
	cur      File // open handle on the last segment (nil until needed)
	lastLSN  uint64
	syncs    int64
	torn     int64
	tornTail bool
	broken   error // a failed write poisons the log: no appends after a half-written frame

	appends *metrics.Counter
	fsyncs  *metrics.Counter
	fsyncS  *metrics.Histogram
	lastG   *metrics.Gauge
	segG    *metrics.Gauge
}

// OpenLog opens (or initializes) the log under fs, validating every
// segment: interior damage is ErrCorrupt, a torn tail on the final
// segment is truncated away.
func OpenLog(fs FS, opts LogOptions) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	l := &Log{fs: fs, opts: opts}
	if opts.Name != "" {
		reg := metrics.Default()
		l.appends = reg.Counter(metrics.Labels("wal_appends_total", "store", opts.Name))
		l.fsyncs = reg.Counter(metrics.Labels("wal_fsync_total", "store", opts.Name))
		l.fsyncS = reg.Histogram(metrics.Labels("wal_fsync_seconds", "store", opts.Name))
		l.lastG = reg.Gauge(metrics.Labels("store_wal_last_lsn", "store", opts.Name))
		l.segG = reg.Gauge(metrics.Labels("store_wal_segments", "store", opts.Name))
	}

	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		first, ok := parseSegName(n)
		if !ok {
			continue
		}
		l.segs = append(l.segs, walSeg{name: n, first: first})
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })

	for i := range l.segs {
		seg := &l.segs[i]
		data, err := readAll(fs, seg.name)
		if err != nil {
			return nil, err
		}
		count, validLen, tail := scanFrames(data)
		switch tail {
		case tailClean:
		case tailTorn:
			if i != len(l.segs)-1 {
				return nil, fmt.Errorf("%w: torn frame inside %s (offset %d), not at log tail",
					ErrCorrupt, seg.name, validLen)
			}
			l.torn = int64(len(data)) - int64(validLen)
			l.tornTail = true
			if err := fs.Truncate(seg.name, int64(validLen)); err != nil {
				return nil, err
			}
		case tailCorrupt:
			return nil, fmt.Errorf("%w: bad frame checksum in %s (offset %d)",
				ErrCorrupt, seg.name, validLen)
		}
		seg.count = count
		seg.size = int64(validLen)
		if i > 0 {
			prev := l.segs[i-1]
			if seg.first != prev.first+uint64(prev.count) {
				return nil, fmt.Errorf("%w: segment %s starts at lsn %d, want %d",
					ErrCorrupt, seg.name, seg.first, prev.first+uint64(prev.count))
			}
		}
	}
	if n := len(l.segs); n > 0 {
		last := l.segs[n-1]
		l.lastLSN = last.first + uint64(last.count) - 1
		if last.count == 0 {
			l.lastLSN = last.first - 1
		}
	}
	l.lastG.Set(int64(l.lastLSN))
	l.segG.Set(int64(len(l.segs)))
	return l, nil
}

// parseSegName extracts the first LSN from wal-<n>.log.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

func segName(first uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, first, segSuffix)
}

// readAll slurps one file through the FS.
func readAll(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Tail classification for scanFrames.
const (
	tailClean   = iota
	tailTorn    // short/implausible frame at the physical end
	tailCorrupt // complete frame whose checksum fails
)

// scanFrames walks data frame by frame, returning how many whole valid
// records it holds, the byte length of that valid prefix, and what the
// remainder is: clean (nothing), torn (an incomplete frame), or corrupt
// (a complete frame with a bad CRC).
func scanFrames(data []byte) (count, validLen, tail int) {
	off := 0
	for {
		rest := len(data) - off
		if rest == 0 {
			return count, off, tailClean
		}
		if rest < frameHeader {
			return count, off, tailTorn
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n == 0 || n > MaxRecord || rest < frameHeader+n {
			// A declared length the file cannot hold: either the tail of
			// an interrupted write or a damaged length field; both leave
			// no way to reframe, so classification is "torn" and the
			// caller decides whether that position may legally be torn.
			return count, off, tailTorn
		}
		want := binary.BigEndian.Uint32(data[off+4:])
		body := data[off+frameHeader : off+frameHeader+n]
		if crc32.Checksum(body, crcTable) != want {
			return count, off, tailCorrupt
		}
		off += frameHeader + n
		count++
	}
}

// Append adds one record and returns its LSN; the record is on stable
// storage when Append returns. A failed write or sync poisons the log —
// after a half-landed frame, further appends would be unrecoverable
// interior damage.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) == 0 || len(payload) > MaxRecord {
		return 0, fmt.Errorf("store: append of %d bytes (want 1..%d)", len(payload), MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, fmt.Errorf("store: log poisoned by earlier write failure: %w", l.broken)
	}
	flen := int64(frameHeader + len(payload))
	if err := l.ensureSegment(flen); err != nil {
		return 0, err
	}
	frame := make([]byte, flen)
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(payload, crcTable))
	copy(frame[frameHeader:], payload)
	if _, err := l.cur.Write(frame); err != nil {
		l.broken = err
		return 0, err
	}
	seg := &l.segs[len(l.segs)-1]
	seg.count++
	seg.size += flen
	l.lastLSN++
	l.appends.Inc()
	l.lastG.Set(int64(l.lastLSN))
	if err := l.syncLocked(); err != nil {
		l.broken = err
		return 0, err
	}
	return l.lastLSN, nil
}

// ensureSegment opens the tail segment for appending, rotating to a new
// one when the next frame would overflow it.
func (l *Log) ensureSegment(next int64) error {
	if n := len(l.segs); n > 0 {
		seg := l.segs[n-1]
		if seg.count == 0 || seg.size+next <= l.opts.SegmentBytes {
			if l.cur != nil {
				return nil
			}
			f, err := l.fs.Append(seg.name)
			if err != nil {
				return err
			}
			l.cur = f
			return nil
		}
	}
	return l.rotateLocked()
}

// Rotate makes the next record open a fresh segment, wal-<LastLSN+1>, so
// that every record before it can later be pruned whole. A tail segment
// holding no records already is one.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return fmt.Errorf("store: log poisoned by earlier write failure: %w", l.broken)
	}
	if n := len(l.segs); n > 0 && l.segs[n-1].count == 0 {
		return nil
	}
	return l.rotateLocked()
}

// rotateLocked syncs and closes the tail segment and starts
// wal-<lastLSN+1>; l.mu held.
func (l *Log) rotateLocked() error {
	if l.cur != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		l.cur.Close()
		l.cur = nil
	}
	name := segName(l.lastLSN + 1)
	f, err := l.fs.Create(name)
	if err != nil {
		return err
	}
	l.cur = f
	l.segs = append(l.segs, walSeg{name: name, first: l.lastLSN + 1})
	l.segG.Set(int64(len(l.segs)))
	return nil
}

// syncLocked flushes the open segment; l.mu held.
func (l *Log) syncLocked() error {
	if l.cur == nil {
		return nil
	}
	t0 := time.Now()
	if err := l.cur.Sync(); err != nil {
		return err
	}
	l.syncs++
	l.fsyncs.Inc()
	l.fsyncS.Observe(time.Since(t0))
	return nil
}

// Replay streams every record with LSN > after, in order, to fn. It
// re-reads the segment files, so it reflects exactly what a restarted
// process would see.
func (l *Log) Replay(after uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]walSeg(nil), l.segs...)
	l.mu.Unlock()
	for i, seg := range segs {
		data, err := readAll(l.fs, seg.name)
		if err != nil {
			return err
		}
		count, validLen, tail := scanFrames(data)
		if tail == tailCorrupt || (tail == tailTorn && i != len(segs)-1) {
			return fmt.Errorf("%w: bad frame in %s (offset %d) during replay",
				ErrCorrupt, seg.name, validLen)
		}
		off := 0
		for rec := 0; rec < count; rec++ {
			n := int(binary.BigEndian.Uint32(data[off:]))
			payload := data[off+frameHeader : off+frameHeader+n]
			off += frameHeader + n
			lsn := seg.first + uint64(rec)
			if lsn <= after {
				continue
			}
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// Prune removes whole segments whose records are all ≤ upTo, oldest
// first, keeping at least the final segment so the log's position
// survives restarts. Each segment leaves the log as its file goes, so a
// failed Remove leaves a log that still names only files that exist.
func (l *Log) Prune(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	defer func() { l.segG.Set(int64(len(l.segs))) }()
	for len(l.segs) > 1 && l.segs[0].first+uint64(l.segs[0].count) <= upTo+1 {
		if err := l.fs.Remove(l.segs[0].name); err != nil {
			return err
		}
		l.segs = l.segs[1:]
	}
	return nil
}

// LastLSN reports the newest record's LSN (0 when empty).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// Stats reports the log's current shape.
func (l *Log) Stats() LogStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LogStats{
		FirstLSN:  l.lastLSN + 1,
		LastLSN:   l.lastLSN,
		Segments:  len(l.segs),
		Syncs:     l.syncs,
		TornBytes: l.torn,
		TornTail:  l.tornTail,
	}
	if len(l.segs) > 0 {
		st.FirstLSN = l.segs[0].first
	}
	return st
}

// Close flushes and releases the tail segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cur == nil {
		return nil
	}
	var err error
	if l.broken == nil {
		err = l.syncLocked()
	}
	if cerr := l.cur.Close(); err == nil {
		err = cerr
	}
	l.cur = nil
	return err
}
