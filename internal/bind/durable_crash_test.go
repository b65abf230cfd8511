package bind

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hns/internal/store"
)

// The crash-loop harness: drive a durable bindd through a seeded update
// storm, kill it at a seeded disk-fault point (torn write, clean write
// cut, crash between a checkpoint's sync and its prune), restart from the
// surviving disk image,
// and assert the recovered state is EXACTLY the acknowledged prefix —
// no acked update lost, no unacked update resurrected, serials pinned.
//
// A shadow pair of plain in-memory zones receives every acknowledged op
// and nothing else; FormatZoneFile makes state comparison canonical.

const (
	crashZoneA = "hns"
	crashZoneB = "meta.hns"
)

// crashShadow tracks the acked state of both zones.
type crashShadow struct {
	zones map[string]*Zone
}

func newCrashShadow(t *testing.T) *crashShadow {
	t.Helper()
	s := &crashShadow{zones: make(map[string]*Zone)}
	for _, origin := range []string{crashZoneB, crashZoneA} { // longest first, as a Server sorts
		z, err := NewZone(origin, true)
		if err != nil {
			t.Fatal(err)
		}
		s.zones[origin] = z
	}
	return s
}

// state renders both zones canonically, serials included.
func (s *crashShadow) state() string {
	var b strings.Builder
	for _, origin := range []string{crashZoneA, crashZoneB} {
		z := s.zones[origin]
		fmt.Fprintf(&b, "zone %s serial %d\n%s", origin, z.Serial(), FormatZoneFile(z.All()))
	}
	return b.String()
}

// newCrashServer builds a two-zone durable server over fs, overlaying
// recovered state — the bindd startup sequence.
func newCrashServer(t *testing.T, fs store.FS, cfg DurableConfig) (*Server, *Durable, error) {
	t.Helper()
	cfg.FS = fs
	d, err := OpenDurable(cfg)
	if err != nil {
		return nil, nil, err
	}
	srv := NewServer("fiji")
	for _, origin := range []string{crashZoneA, crashZoneB} {
		z, err := NewZone(origin, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	for _, rz := range d.Zones() {
		target := srv.Zone(rz.Origin())
		if target == nil {
			t.Fatalf("recovered unknown zone %q", rz.Origin())
		}
		if err := target.Adopt(rz); err != nil {
			t.Fatalf("overlay %s: %v", rz.Origin(), err)
		}
	}
	d.Attach(srv)
	return srv, d, nil
}

// serverState renders the server's two zones the same way the shadow does.
func serverState(srv *Server) string {
	var b strings.Builder
	for _, origin := range []string{crashZoneA, crashZoneB} {
		z := srv.Zone(origin)
		fmt.Fprintf(&b, "zone %s serial %d\n%s", origin, z.Serial(), FormatZoneFile(z.All()))
	}
	return b.String()
}

// stormOp applies one seeded op to the durable server and, iff it was
// acknowledged, to the shadow. Reports whether the disk has crashed.
func stormOp(t *testing.T, rng *rand.Rand, srv *Server, shadow *crashShadow) (crashed bool) {
	t.Helper()
	origin := crashZoneA
	if rng.Intn(3) == 0 {
		origin = crashZoneB
	}
	var op uint32 = UpdateAdd
	rr := A(fmt.Sprintf("h%d.%s", rng.Intn(30), origin), fmt.Sprintf("10.0.%d.1", rng.Intn(200)), 60)
	if rng.Intn(10) < 3 {
		op = UpdateRemove
		rr = RR{Name: fmt.Sprintf("h%d.%s", rng.Intn(30), origin), Type: TypeA} // wildcard remove
	}
	rcode, serial, err := srv.Update(context.Background(), origin, op, rr)
	if errors.Is(err, store.ErrCrashed) {
		return true
	}
	if rcode != RCodeOK {
		return false // semantic refusal (e.g. removing a missing name); not acked, keep going
	}
	sz := shadow.zones[origin]
	if op == UpdateAdd {
		err = sz.Add(rr)
	} else {
		err = sz.Remove(rr)
	}
	if err != nil {
		t.Fatalf("shadow diverged applying acked op: %v", err)
	}
	if sz.Serial() != serial {
		t.Fatalf("acked serial %d but shadow at %d", serial, sz.Serial())
	}
	return false
}

// TestCrashRecoveryStorm is the required 100+-point crash matrix: one
// sub-run per seeded fault point. Checkpoints are owed by journal bytes,
// so the small segment is what makes a few-KB storm take several; after
// the crash is verified the storm carries on over the recovered store and
// is recovered once more, so every point — also those that die before a
// first checkpoint could be due — crosses at least one.
func TestCrashRecoveryStorm(t *testing.T) {
	const points = 120
	cfg := DurableConfig{Fsync: store.SyncAlways, SegmentBytes: 512}
	for point := 0; point < points; point++ {
		point := point
		t.Run(fmt.Sprintf("point-%03d", point), func(t *testing.T) {
			mem := store.NewMemFS()
			plan := store.NewFaultPlan(int64(1000 + point))
			switch {
			case point%10 == 9:
				// Every tenth point: the crash lands on a segment
				// removal — after a checkpoint is synced, before or
				// partway through its prune — instead of a WAL write.
				plan.CrashOnRemove(1 + (point/10)%3)
			default:
				plan.CrashAfterWrites(1+point, point%2 == 0)
			}
			srv, d, err := newCrashServer(t, store.NewFaultFS(mem, plan), cfg)
			if err != nil {
				t.Fatalf("fresh open failed: %v", err)
			}
			shadow := newCrashShadow(t)
			rng := rand.New(rand.NewSource(int64(77 * (point + 1))))
			for i := 0; i < 200; i++ {
				if stormOp(t, rng, srv, shadow) {
					break
				}
			}
			if !plan.Crashed() {
				t.Fatalf("fault point %d never fired in a 200-op storm", point)
			}
			d.Close() // the dying process's half-close; errors irrelevant

			// Restart from the surviving disk image, faults gone.
			srv2, d2, err := newCrashServer(t, mem, cfg)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			if got, want := serverState(srv2), shadow.state(); got != want {
				t.Fatalf("recovered state is not the acked prefix:\n--- recovered\n%s--- acked\n%s", got, want)
			}

			// The storm goes on over what was recovered (truncated tail,
			// unpruned segments and all), and must recover again.
			for i := 0; i < 200; i++ {
				if stormOp(t, rng, srv2, shadow) {
					t.Fatal("clean storm crashed")
				}
			}
			d2.Close()
			srv3, d3, err := newCrashServer(t, mem, cfg)
			if err != nil {
				t.Fatalf("second recovery failed: %v", err)
			}
			defer d3.Close()
			if got, want := serverState(srv3), shadow.state(); got != want {
				t.Fatalf("state recovered after the storm went on is not the acked prefix:\n--- recovered\n%s--- acked\n%s", got, want)
			}
			if st := d3.Stats(); st.SnapshotLSN == 0 {
				t.Fatalf("storm crossed no checkpoint: %+v", st)
			}
		})
	}
}

// TestCrashRecoveryBitrot layers read-path bitrot over recovery: for
// each seed the reopened store must either refuse (ErrCorrupt — acked
// data is damaged and silence would be loss) or recover a state that
// exactly matches some acked prefix of the storm.
func TestCrashRecoveryBitrot(t *testing.T) {
	cfg := DurableConfig{Fsync: store.SyncAlways, SegmentBytes: 384}
	for seed := int64(1); seed <= 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			mem := store.NewMemFS()
			srv, d, err := newCrashServer(t, mem, cfg)
			if err != nil {
				t.Fatal(err)
			}
			shadow := newCrashShadow(t)
			prefixes := []string{shadow.state()}
			rng := rand.New(rand.NewSource(31 * seed))
			for i := 0; i < 60; i++ {
				if stormOp(t, rng, srv, shadow) {
					t.Fatal("clean storm crashed")
				}
				prefixes = append(prefixes, shadow.state())
			}
			d.Close()
			if lsn, _ := newestCheckpoint(t, mem); lsn == 0 {
				t.Fatal("storm crossed no checkpoint")
			}

			plan := store.NewFaultPlan(seed)
			plan.BitrotRead(int(seed % 7))
			srv2, d2, err := newCrashServer(t, store.NewFaultFS(mem, plan), cfg)
			if err != nil {
				if !errors.Is(err, store.ErrCorrupt) {
					t.Fatalf("recovery under bitrot: %v, want ErrCorrupt or success", err)
				}
				return // detected: the required outcome for damaged acked data
			}
			defer d2.Close()
			got := serverState(srv2)
			for _, p := range prefixes {
				if got == p {
					return
				}
			}
			t.Fatalf("recovered state under bitrot matches no acked prefix:\n%s", got)
		})
	}
}

// TestCrashRecoveryIdempotent restarts twice from the same image: both
// recoveries must agree (recovery itself mutates nothing it shouldn't).
func TestCrashRecoveryIdempotent(t *testing.T) {
	cfg := DurableConfig{Fsync: store.SyncAlways, SegmentBytes: 256}
	mem := store.NewMemFS()
	plan := store.NewFaultPlan(424242)
	plan.CrashAfterWrites(33, true)
	srv, d, err := newCrashServer(t, store.NewFaultFS(mem, plan), cfg)
	if err != nil {
		t.Fatal(err)
	}
	shadow := newCrashShadow(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if stormOp(t, rng, srv, shadow) {
			break
		}
	}
	d.Close()

	srvA, dA, err := newCrashServer(t, mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stateA := serverState(srvA)
	if st := dA.Stats(); st.SnapshotLSN == 0 {
		t.Fatalf("storm crossed no checkpoint: %+v", st)
	}
	dA.Close()
	srvB, dB, err := newCrashServer(t, mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dB.Close()
	if stateB := serverState(srvB); stateA != stateB {
		t.Fatalf("recovery not idempotent:\n--- first\n%s--- second\n%s", stateA, stateB)
	}
	if stateA != shadow.state() {
		t.Fatalf("recovered state drifted from acked prefix")
	}
}

// TestDurableMissingCheckpointRefuses: a log pruned past LSN 1 has no base
// but the checkpoint it opens with. Intact, it recovers the acked state;
// with the checkpoint's segment gone, recovery refuses instead of
// replaying a suffix of nothing. A checkpoint torn at the tail, with the
// segments before it still there, is a no-op.
func TestDurableMissingCheckpointRefuses(t *testing.T) {
	cfg := DurableConfig{Fsync: store.SyncAlways, SegmentBytes: 256}
	t.Run("pruned", func(t *testing.T) {
		mem := store.NewMemFS()
		srv, d, err := newCrashServer(t, mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		shadow := newCrashShadow(t)
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 40; i++ {
			if stormOp(t, rng, srv, shadow) {
				t.Fatal("clean storm crashed")
			}
		}
		d.Close()
		lsn, _ := newestCheckpoint(t, mem)
		names, _ := mem.List()
		if lsn <= 1 || len(names) < 2 || names[0] != fmt.Sprintf("wal-%016d.log", lsn) {
			t.Fatalf("want a pruned log opening at its checkpoint; checkpoint at lsn %d, files %v", lsn, names)
		}

		srv2, d2, err := newCrashServer(t, mem, cfg)
		if err != nil {
			t.Fatalf("intact: %v", err)
		}
		if got, want := serverState(srv2), shadow.state(); got != want {
			t.Fatalf("intact log recovered:\n%s\nwant the acked state:\n%s", got, want)
		}
		d2.Close()

		if err := mem.Remove(names[0]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := newCrashServer(t, mem, cfg); !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("checkpoint segment deleted: %v, want ErrCorrupt", err)
		}
	})
	t.Run("torn", func(t *testing.T) {
		mem := store.NewMemFS()
		plan := store.NewFaultPlan(17)
		srv, d, err := newCrashServer(t, store.NewFaultFS(mem, plan), DurableConfig{Fsync: store.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		shadow := newCrashShadow(t)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 20; i++ {
			if stormOp(t, rng, srv, shadow) {
				t.Fatal("clean storm crashed")
			}
		}
		// The marker and the first zone's image land; the second image
		// is torn by the crash.
		plan.CrashAfterWrites(3, true)
		if err := d.Snapshot(); !errors.Is(err, store.ErrCrashed) {
			t.Fatalf("checkpoint: %v, want the injected crash", err)
		}
		d.Close()
		srv2, d2, err := newCrashServer(t, mem, cfg)
		if err != nil {
			t.Fatalf("recovery over a torn checkpoint: %v", err)
		}
		defer d2.Close()
		if got, want := serverState(srv2), shadow.state(); got != want {
			t.Fatalf("recovered:\n%s\nwant the acked state:\n%s", got, want)
		}
	})
}
