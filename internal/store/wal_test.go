package store

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// collect replays the whole log into a slice of payload strings.
func collect(t *testing.T, l *Log, after uint64) []string {
	t.Helper()
	var out []string
	err := l.Replay(after, func(lsn uint64, payload []byte) error {
		out = append(out, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestLogAppendReplayRoundTrip(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 50; i++ {
		p := fmt.Sprintf("record-%03d", i)
		lsn, err := l.Append([]byte(p))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d, want %d", lsn, i+1)
		}
		want = append(want, p)
	}
	got := collect(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Replay after an offset skips the prefix.
	if got := collect(t, l, 47); len(got) != 3 || got[0] != "record-047" {
		t.Fatalf("replay after 47: %v", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh open over the same files sees the same log.
	l2, err := OpenLog(fs, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastLSN() != 50 {
		t.Fatalf("reopened LastLSN %d, want 50", l2.LastLSN())
	}
	if got := collect(t, l2, 0); len(got) != 50 {
		t.Fatalf("reopened replay %d records, want 50", len(got))
	}
	// And appends continue the sequence.
	if lsn, err := l2.Append([]byte("after-reopen")); err != nil || lsn != 51 {
		t.Fatalf("append after reopen: lsn %d, err %v", lsn, err)
	}
}

func TestLogSegmentRotationAndPrune(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", st.Segments)
	}
	if got := collect(t, l, 0); len(got) != 20 {
		t.Fatalf("replay across segments: %d records, want 20", len(got))
	}

	// Prune everything before LSN 15: older whole segments go, records
	// after 15 survive, and the tail segment always stays.
	if err := l.Prune(15); err != nil {
		t.Fatal(err)
	}
	st2 := l.Stats()
	if st2.Segments >= st.Segments {
		t.Fatalf("prune kept all %d segments", st2.Segments)
	}
	if st2.FirstLSN > 16 {
		t.Fatalf("prune removed records beyond upTo: first lsn now %d", st2.FirstLSN)
	}
	got := collect(t, l, 15)
	if len(got) != 5 || got[0] != "payload-15" {
		t.Fatalf("replay after prune: %v", got)
	}

	// Reopen: continuity check passes over the pruned set.
	l.Close()
	l2, err := OpenLog(fs, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastLSN() != 20 {
		t.Fatalf("LastLSN after prune+reopen %d, want 20", l2.LastLSN())
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail: append half a frame by hand.
	name := segName(1)
	f, err := fs.Append(name)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 0xde, 0xad})
	f.Close()
	before := fs.Size(name)

	l2, err := OpenLog(fs, LogOptions{})
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	st := l2.Stats()
	if !st.TornTail || st.TornBytes != 6 {
		t.Fatalf("torn stats %+v, want TornTail with 6 bytes", st)
	}
	if fs.Size(name) != before-6 {
		t.Fatalf("torn bytes not truncated: %d -> %d", before, fs.Size(name))
	}
	if l2.LastLSN() != 5 {
		t.Fatalf("LastLSN %d, want 5", l2.LastLSN())
	}
	// Appending after truncation produces a clean, fully-replayable log.
	if lsn, err := l2.Append([]byte("rec-5")); err != nil || lsn != 6 {
		t.Fatalf("append after torn recovery: %d, %v", lsn, err)
	}
	if got := collect(t, l2, 0); len(got) != 6 || got[5] != "rec-5" {
		t.Fatalf("replay after torn recovery: %v", got)
	}
}

func TestLogInteriorCorruptionDetected(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	if l.Stats().Segments < 3 {
		t.Fatalf("need several segments, got %d", l.Stats().Segments)
	}

	// Flip a payload byte in the FIRST segment: an interior, acked
	// record. Open must refuse, not silently skip.
	if err := fs.Corrupt(segName(1), frameHeader+2); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(fs, LogOptions{SegmentBytes: 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("interior bitrot not detected: %v", err)
	}
}

func TestLogGapDetected(t *testing.T) {
	fs := NewMemFS()
	l, err := OpenLog(fs, LogOptions{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs := l.Stats().Segments
	if segs < 3 {
		t.Fatalf("need >=3 segments, got %d", segs)
	}
	// Delete a middle segment: the LSN continuity check must fire.
	var middle string
	names, _ := fs.List()
	var walNames []string
	for _, n := range names {
		if _, ok := parseSegName(n); ok {
			walNames = append(walNames, n)
		}
	}
	middle = walNames[1]
	if err := fs.Remove(middle); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(fs, LogOptions{SegmentBytes: 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing segment not detected: %v", err)
	}
}

// TestLogSyncPolicies pins the log's one policy: every append is synced
// to the file system before it returns.
func TestLogSyncPolicies(t *testing.T) {
	fs := NewMemFS()
	l := mustOpen(t, fs)
	for i := 1; i <= 10; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Syncs != int64(i) || fs.Syncs() != i {
			t.Fatalf("after %d appends: %d syncs (file system saw %d), want one per append", i, st.Syncs, fs.Syncs())
		}
	}
}

func TestLogAppendLimits(t *testing.T) {
	l, _ := OpenLog(NewMemFS(), LogOptions{})
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if _, err := l.Append(make([]byte, MaxRecord+1)); err == nil {
		t.Fatal("oversized append accepted")
	}
}

func TestLogPoisonedAfterWriteFailure(t *testing.T) {
	mem := NewMemFS()
	plan := NewFaultPlan(1)
	plan.CrashAfterWrites(3, true)
	l, err := OpenLog(NewFaultFS(mem, plan), LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			failed = true
			if !errors.Is(err, ErrCrashed) && !errors.Is(l.broken, ErrCrashed) {
				t.Fatalf("unexpected append error: %v", err)
			}
		} else if failed {
			t.Fatal("append succeeded after the log was poisoned")
		}
	}
	if !failed {
		t.Fatal("crash never fired")
	}
	// The surviving prefix (2 full records) replays cleanly on the
	// post-crash disk image.
	l2, err := OpenLog(mem, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2, 0); len(got) != 2 {
		t.Fatalf("post-crash replay %v, want 2 records", got)
	}
}

func TestLogOnRealFilesystem(t *testing.T) {
	fs, err := DirFS(t.TempDir() + "/data")
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(fs, LogOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("disk-record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint's shape: rotate, append, prune all that came before.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.Append([]byte("checkpoint")); err != nil || lsn != 31 {
		t.Fatalf("append after rotate: lsn %d, %v", lsn, err)
	}
	if err := l.Prune(30); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := OpenLog(fs, LogOptions{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.FirstLSN != 31 || st.LastLSN != 31 || st.Segments != 1 {
		t.Fatalf("log on disk after prune: %+v, want one segment holding lsn 31", st)
	}
	if got := collect(t, l2, 0); len(got) != 1 || got[0] != "checkpoint" {
		t.Fatalf("replay on disk: %v", got)
	}
}

// TestLogRotate pins what a checkpoint relies on: Rotate starts
// wal-<LastLSN+1>, a rotation onto an empty tail is a no-op, and the next
// append lands in the fresh segment.
func TestLogRotate(t *testing.T) {
	fs := NewMemFS()
	l := mustOpen(t, fs)
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments != 2 || fs.Size(segName(4)) != 0 {
		t.Fatalf("after two rotations: %+v, %s is %d bytes; want one fresh empty segment", st, segName(4), fs.Size(segName(4)))
	}
	if lsn, err := l.Append([]byte("rec-3")); err != nil || lsn != 4 {
		t.Fatalf("append after rotate: lsn %d, %v", lsn, err)
	}
	if fs.Size(segName(4)) <= 0 {
		t.Fatalf("append after rotate did not land in %s", segName(4))
	}
	if got := collect(t, l, 0); len(got) != 4 || got[3] != "rec-3" {
		t.Fatalf("replay across the rotation: %v", got)
	}
}

// TestLogReopenOverEmptyTail pins the two edges of finding a
// checkpoint at open: an empty store opens with no records, and the one
// leftover of a checkpoint interrupted right after its rotation's
// Create, an empty tail segment, is accepted on reopen, filled by the
// next append and pruned like any other.
func TestLogReopenOverEmptyTail(t *testing.T) {
	fs := NewMemFS()
	l := mustOpen(t, fs)
	if got := collect(t, l, 0); l.LastLSN() != 0 || len(got) != 0 {
		t.Fatalf("empty store: LastLSN %d, records %v", l.LastLSN(), got)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	l.Close() // the crash: nothing written after the Create

	l2 := mustOpen(t, fs)
	if st := l2.Stats(); st.Segments != 2 || st.LastLSN != 3 {
		t.Fatalf("reopen over an empty tail: %+v", st)
	}
	if lsn, err := l2.Append([]byte("rec-3")); err != nil || lsn != 4 {
		t.Fatalf("append after reopen: lsn %d, %v", lsn, err)
	}
	if err := l2.Prune(3); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(); len(names) != 1 || names[0] != segName(4) {
		t.Fatalf("prune left %v, want only %s", names, segName(4))
	}
	l2.Close()
	if got := collect(t, mustOpen(t, fs), 0); len(got) != 1 || got[0] != "rec-3" {
		t.Fatalf("replay after prune: %v", got)
	}
}

// TestLogPruneToNewestCheckpoint pins a checkpoint's last step: after checkpoints at
// LSNs 3, 9 and 27, each a rotation and then its record, pruning every
// record before the newest leaves only the newest checkpoint's segment.
func TestLogPruneToNewestCheckpoint(t *testing.T) {
	fs := NewMemFS()
	l := mustOpen(t, fs)
	for _, at := range []uint64{3, 9, 27} {
		for l.LastLSN() < at-1 {
			if _, err := l.Append([]byte("update")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		if lsn, err := l.Append([]byte(fmt.Sprintf("checkpoint@%d", at))); err != nil || lsn != at {
			t.Fatalf("checkpoint record: lsn %d, %v; want %d", lsn, err, at)
		}
	}
	if err := l.Prune(26); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(); len(names) != 1 || names[0] != segName(27) {
		t.Fatalf("prune left %v, want only %s", names, segName(27))
	}
	l.Close()
	if got := collect(t, mustOpen(t, fs), 0); len(got) != 1 || got[0] != "checkpoint@27" {
		t.Fatalf("replay after prune: %v", got)
	}
}

// removeFailFS fails the n-th Remove, once.
type removeFailFS struct {
	FS
	n int
}

func (f *removeFailFS) Remove(name string) error {
	if f.n--; f.n == 0 {
		return errors.New("remove: injected failure")
	}
	return f.FS.Remove(name)
}

// A Prune that fails partway leaves a log naming only the files that are
// still there, so the next Prune, a Replay and a reopen all work.
func TestLogPruneResumesAfterFailedRemove(t *testing.T) {
	mem := NewMemFS()
	fs := &removeFailFS{FS: mem, n: 2}
	l, err := OpenLog(fs, LogOptions{SegmentBytes: 16}) // one record per segment
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Segments != 20 {
		t.Fatalf("%d segments, want 20", st.Segments)
	}
	if err := l.Prune(15); err == nil {
		t.Fatal("prune through a failing Remove succeeded")
	}
	if st := l.Stats(); st.Segments != 19 || st.FirstLSN != 2 {
		t.Fatalf("after the failed prune: %+v, want 19 segments from lsn 2", st)
	}
	if got := collect(t, l, 0); len(got) != 19 || got[0] != "payload-01" {
		t.Fatalf("replay after the failed prune: %v", got)
	}
	if err := l.Prune(15); err != nil {
		t.Fatalf("the next prune: %v", err)
	}
	if st := l.Stats(); st.Segments != 5 || st.FirstLSN != 16 {
		t.Fatalf("after the retried prune: %+v, want 5 segments from lsn 16", st)
	}
	l.Close()
	if got := collect(t, mustOpen(t, mem), 0); len(got) != 5 || got[0] != "payload-15" {
		t.Fatalf("replay after reopen: %v", got)
	}
}

// A crash on a Remove — between a checkpoint's sync and the end of its
// prune — leaves every segment not yet removed in place, and the log
// reopens over them.
func TestLogCrashOnRemoveKeepsSegments(t *testing.T) {
	mem := NewMemFS()
	plan := NewFaultPlan(3)
	l, err := OpenLog(NewFaultFS(mem, plan), LogOptions{SegmentBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	plan.CrashOnRemove(2)
	if err := l.Prune(5); !errors.Is(err, ErrCrashed) {
		t.Fatalf("prune: %v, want ErrCrashed", err)
	}
	if mem.Size(segName(1)) >= 0 || mem.Size(segName(2)) < 0 {
		t.Fatal("the crash was not before the second Remove")
	}
	if got := collect(t, mustOpen(t, mem), 0); len(got) != 5 || got[0] != "payload-01" {
		t.Fatalf("replay after the crash: %v", got)
	}
}

// TestLogReopenAppendOnDisk exercises the real-filesystem reopen path: a
// log closed and reopened must continue appending into the existing tail
// segment (fs.Append), and a torn tail on disk must be truncated with
// the real Truncate.
func TestLogReopenAppendOnDisk(t *testing.T) {
	dir := t.TempDir()
	fs, err := DirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := mustOpen(t, fs)
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail on the real file: half a frame header.
	af, err := fs.Append(segName(1))
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte{0, 0, 0})
	af.Close()

	l2 := mustOpen(t, fs)
	st := l2.Stats()
	if !st.TornTail || st.TornBytes != 3 || st.LastLSN != 5 {
		t.Fatalf("reopen stats: %+v", st)
	}
	// Appending continues in the same segment file, after the cut.
	if lsn, err := l2.Append([]byte("rec-5")); err != nil || lsn != 6 {
		t.Fatalf("append after reopen: lsn %d, %v", lsn, err)
	}
	l2.Close()
	got := collect(t, mustOpen(t, fs), 0)
	if len(got) != 6 || string(got[5]) != "rec-5" {
		t.Fatalf("final replay: %d records", len(got))
	}
}

func mustOpen(t *testing.T, fs FS) *Log {
	t.Helper()
	l, err := OpenLog(fs, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSegName pins the segment file name, wal-<16-digit LSN>.log, and its
// round trip through parseSegName, up to LSNs too wide for the padding.
func TestSegName(t *testing.T) {
	for _, first := range []uint64{1, 9, 10, 12345, 999_999_999_999_999, 1e15, 1e16, math.MaxUint64} {
		name := segName(first)
		if want := fmt.Sprintf("wal-%016d.log", first); name != want {
			t.Errorf("segName(%d) = %q, want %q", first, name, want)
		}
		if got, ok := parseSegName(name); !ok || got != first {
			t.Errorf("parseSegName(%q) = %d, %v", name, got, ok)
		}
	}
}
