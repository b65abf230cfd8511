package store

import (
	"errors"
	"fmt"
	"testing"
)

func TestFaultPlanCrashAfterWrites(t *testing.T) {
	mem := NewMemFS()
	plan := NewFaultPlan(7)
	plan.CrashAfterWrites(3, false)
	ffs := NewFaultFS(mem, plan)

	f, err := ffs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("abcd")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := f.Write([]byte("efgh")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("third write: %v, want ErrCrashed", err)
	}
	if !plan.Crashed() {
		t.Fatal("plan not marked crashed")
	}
	// Without torn tail, nothing from the crashing write lands.
	if mem.Size("f") != 8 {
		t.Fatalf("file size %d, want 8", mem.Size("f"))
	}
	// Everything after the crash fails, across the FS surface.
	if _, err := ffs.Create("g"); !errors.Is(err, ErrCrashed) {
		t.Fatal("Create survived the crash")
	}
	if _, err := ffs.List(); !errors.Is(err, ErrCrashed) {
		t.Fatal("List survived the crash")
	}
	if err := ffs.Remove("f"); !errors.Is(err, ErrCrashed) {
		t.Fatal("Remove survived the crash")
	}
}

func TestFaultPlanTornTailIsSeededPrefix(t *testing.T) {
	sizes := make(map[int64]bool)
	for seed := int64(0); seed < 8; seed++ {
		mem := NewMemFS()
		plan := NewFaultPlan(seed)
		plan.CrashAfterWrites(1, true)
		f, _ := NewFaultFS(mem, plan).Create("f")
		if _, err := f.Write(make([]byte, 100)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := mem.Size("f")
		if n < 0 || n >= 100 {
			t.Fatalf("seed %d: torn prefix %d, want 0..99", seed, n)
		}
		sizes[n] = true

		// Reproducible: the same seed tears at the same byte.
		mem2 := NewMemFS()
		plan2 := NewFaultPlan(seed)
		plan2.CrashAfterWrites(1, true)
		f2, _ := NewFaultFS(mem2, plan2).Create("f")
		f2.Write(make([]byte, 100))
		if mem2.Size("f") != n {
			t.Fatalf("seed %d not reproducible: %d vs %d", seed, n, mem2.Size("f"))
		}
	}
	if len(sizes) < 2 {
		t.Fatalf("torn offsets not seed-dependent: %v", sizes)
	}
}

func TestFaultPlanBitrotRead(t *testing.T) {
	mem := NewMemFS()
	f, _ := mem.Create("f")
	f.Write([]byte("pristine contents"))
	f.Close()

	plan := NewFaultPlan(11)
	plan.BitrotRead(1)
	ffs := NewFaultFS(mem, plan)
	data, err := readAll(ffs, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) == "pristine contents" {
		t.Fatal("bitrot did not flip anything")
	}
	diff := 0
	for i := range data {
		if data[i] != "pristine contents"[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	// The underlying file is untouched — rot is in the read path.
	if clean, _ := readAll(mem, "f"); string(clean) != "pristine contents" {
		t.Fatal("bitrot corrupted the medium, not the read")
	}
}

// TestFaultFSBitrotDuringRecovery drives the whole stack: a log written
// cleanly, then reopened through a FaultFS that rots one read. Recovery
// must never serve silently-corrupt interior data: it either detects
// ErrCorrupt or, when the flipped bit lands in the final segment's tail
// frame, degrades to the torn-tail rule.
func TestFaultFSBitrotDuringRecovery(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		mem := NewMemFS()
		l, err := OpenLog(mem, LogOptions{SegmentBytes: 96})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, err := l.Append([]byte(fmt.Sprintf("payload-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()

		plan := NewFaultPlan(seed)
		plan.BitrotRead(int(seed)) // rot the seed-th read of recovery
		l2, err := OpenLog(NewFaultFS(mem, plan), LogOptions{SegmentBytes: 96})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("seed %d: unexpected open error: %v", seed, err)
			}
			continue // detected — the required outcome for interior rot
		}
		// Open survived: the rot landed in tail position (dropped as
		// torn) or in a frame boundary that still checksummed... which
		// cannot happen: verify whatever replays is a clean prefix.
		var got []string
		err = l2.Replay(0, func(lsn uint64, p []byte) error {
			got = append(got, string(p))
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("seed %d: replay error: %v", seed, err)
		}
		for i, p := range got {
			if p != fmt.Sprintf("payload-%02d", i) {
				t.Fatalf("seed %d: corrupt record served: %q at %d", seed, p, i)
			}
		}
	}
}

// TestFaultFSPassThrough covers the whole FS surface before any fault
// fires: every op must behave exactly like the inner FS.
func TestFaultFSPassThrough(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, NewFaultPlan(1)) // empty plan: nothing armed

	f, err := ffs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	af, err := ffs.Append("a")
	if err != nil {
		t.Fatal(err)
	}
	af.Write([]byte(" world"))
	af.Close()
	if err := ffs.Truncate("a", 5); err != nil {
		t.Fatal(err)
	}
	data, err := readAll(ffs, "a")
	if err != nil || string(data) != "hello" {
		t.Fatalf("readAll: %q, %v", data, err)
	}
	names, err := ffs.List()
	if err != nil || len(names) != 1 || names[0] != "a" {
		t.Fatalf("List: %v, %v", names, err)
	}
	if err := ffs.Remove("a"); err != nil {
		t.Fatal(err)
	}

	// After a crash fires, the remaining surface refuses too.
	plan := NewFaultPlan(2)
	plan.CrashAfterWrites(1, false)
	ffs2 := NewFaultFS(mem, plan)
	g, _ := ffs2.Create("c")
	if _, err := g.Write([]byte("x")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write: %v", err)
	}
	if _, err := ffs2.Append("c"); !errors.Is(err, ErrCrashed) {
		t.Fatal("Append survived the crash")
	}
	if _, err := ffs2.Open("c"); !errors.Is(err, ErrCrashed) {
		t.Fatal("Open survived the crash")
	}
	if err := ffs2.Truncate("c", 0); !errors.Is(err, ErrCrashed) {
		t.Fatal("Truncate survived the crash")
	}
	if err := ffs2.Remove("c"); !errors.Is(err, ErrCrashed) {
		t.Fatal("Remove survived the crash")
	}
	if err := g.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatal("Sync survived the crash")
	}
}
