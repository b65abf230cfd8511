package colocate

import (
	"context"
	"testing"
	"time"

	"hns/internal/bind"
	"hns/internal/world"
)

func newWorld(t *testing.T) *world.World {
	t.Helper()
	w, err := world.New(world.Config{CacheMode: bind.CacheMarshalled})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func TestImportWorksInEveryArrangement(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	for _, arr := range Arrangements() {
		t.Run(arr.String(), func(t *testing.T) {
			im, err := New(w, arr, bind.CacheMarshalled)
			if err != nil {
				t.Fatal(err)
			}
			defer im.Close()
			w.HNS.FlushCache()
			im.FlushHNSCache()
			im.FlushNSMCache()

			b, err := im.Import(ctx, world.DesiredService,
				world.DesiredProgram, world.DesiredVersion, BindHostName())
			if err != nil {
				t.Fatal(err)
			}
			// The binding must actually work.
			ret, err := w.RPC.Call(ctx, b, world.EchoProc, world.EchoArgs("bound"))
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := ret.Items[0].AsString(); got != "bound" {
				t.Fatalf("echo = %q", got)
			}
		})
	}
}

func TestImportCourierServiceThroughSameClientCode(t *testing.T) {
	// The client's Import does not change when the name comes from the
	// Clearinghouse world: only the tag in the host name differs.
	w := newWorld(t)
	im, err := New(w, ClientHNSNSMs, bind.CacheMarshalled)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	ctx := context.Background()
	b, err := im.Import(ctx, "fileserver", world.CourierProgram, world.CourierVersion,
		"ch!"+world.CourierService)
	if err != nil {
		t.Fatal(err)
	}
	if b.Control != "courier" {
		t.Fatalf("courier-world binding = %v", b)
	}
	if _, err := w.RPC.Call(ctx, b, world.EchoProc, world.EchoArgs("x")); err != nil {
		t.Fatal(err)
	}
}

func TestImportUnknownWorld(t *testing.T) {
	w := newWorld(t)
	im, err := New(w, ClientHNSNSMs, bind.CacheMarshalled)
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	_, err = im.Import(context.Background(), "svc", 1, 1, "vms!node42")
	if err == nil {
		t.Fatal("import from unregistered world succeeded")
	}
	if _, err := im.Import(context.Background(), "svc", 1, 1, "untagged-host"); err == nil {
		t.Fatal("untagged host name accepted")
	}
}

// TestTable31Shape verifies the relationships the paper draws from
// Table 3.1 — the orderings and magnitudes, not exact figures.
func TestTable31Shape(t *testing.T) {
	w := newWorld(t)
	table, err := RunTable31(context.Background(), w, bind.CacheMarshalled)
	if err != nil {
		t.Fatal(err)
	}
	for arr, cell := range table {
		// Columns strictly improve left to right.
		if !(cell.Miss > cell.HNSHit && cell.HNSHit > cell.BothHit) {
			t.Errorf("%s: columns not decreasing: %.0f/%.0f/%.0f",
				arr, ms(cell.Miss), ms(cell.HNSHit), ms(cell.BothHit))
		}
	}
	// Row 1 is the cheapest, row 5 the dearest, in every column.
	r1, r5 := table[ClientHNSNSMs], table[AllRemote]
	for _, arr := range Arrangements() {
		c := table[arr]
		if c.Miss < r1.Miss || c.HNSHit < r1.HNSHit || c.BothHit < r1.BothHit {
			t.Errorf("%s undercuts the all-local row", arr)
		}
		if c.Miss > r5.Miss || c.HNSHit > r5.HNSHit || c.BothHit > r5.BothHit {
			t.Errorf("%s exceeds the all-remote row", arr)
		}
	}
	// The paper's major lesson: "the potential benefit of caching far
	// exceeds that obtainable solely by colocation" — the best
	// colocation saves less than caching saves.
	colocationGain := r5.Miss - r1.Miss
	cachingGain := r1.Miss - r1.BothHit
	if cachingGain < 2*colocationGain {
		t.Errorf("caching gain %v not ≫ colocation gain %v", cachingGain, colocationGain)
	}
	// Middle rows (one remote call) sit within a tight band of each
	// other, as in the paper (509-517 for column A).
	mids := []Cell{table[AgentHNSNSMs], table[RemoteHNS], table[RemoteNSMs]}
	for _, m := range mids {
		for _, m2 := range mids {
			if d := m.Miss - m2.Miss; d > 30*time.Millisecond || d < -30*time.Millisecond {
				t.Errorf("one-remote-call rows differ by %v", d)
			}
		}
	}
}

// TestTable31Row1Anchors pins row 1 against the paper's 460/180/104.
func TestTable31Row1Anchors(t *testing.T) {
	w := newWorld(t)
	cell, err := RunRow(context.Background(), w, ClientHNSNSMs, bind.CacheMarshalled)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got time.Duration, want, tolPct float64) {
		t.Helper()
		g := ms(got)
		if g < want*(1-tolPct) || g > want*(1+tolPct) {
			t.Errorf("row 1 %s = %.1f ms, want %.0f ± %.0f%%", name, g, want, tolPct*100)
		}
	}
	check("miss", cell.Miss, 460, 0.18)
	check("hns-hit", cell.HNSHit, 180, 0.18)
	check("both-hit", cell.BothHit, 104, 0.18)
}

func TestBreakEven(t *testing.T) {
	// The paper's worked examples: making the HNS local vs remote with
	// C(remote call)=33, C(hit)=261, C(miss)=547 → q ≈ 11%; NSMs with
	// C(hit)=147, C(miss)=225 → q ≈ 42%.
	q := BreakEven(33*time.Millisecond, 547*time.Millisecond, 261*time.Millisecond)
	if q < 0.10 || q > 0.13 {
		t.Errorf("HNS break-even = %.3f, want ≈0.11", q)
	}
	q = BreakEven(33*time.Millisecond, 225*time.Millisecond, 147*time.Millisecond)
	if q < 0.40 || q > 0.45 {
		t.Errorf("NSM break-even = %.3f, want ≈0.42", q)
	}
	// Degenerate: no miss/hit gap → remote can never win.
	if q := BreakEven(time.Millisecond, time.Millisecond, time.Millisecond); q != 1 {
		t.Errorf("degenerate break-even = %f, want 1", q)
	}
}

func TestHNSCacheStatsPerArrangement(t *testing.T) {
	w := newWorld(t)
	ctx := context.Background()
	for _, arr := range []Arrangement{ClientHNSNSMs, AgentHNSNSMs, AllRemote} {
		im, err := New(w, arr, bind.CacheMarshalled)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := im.Import(ctx, world.DesiredService,
			world.DesiredProgram, world.DesiredVersion, BindHostName()); err != nil {
			t.Fatal(err)
		}
		h := im.localHNS
		if h == nil {
			h = im.agentHNS
		}
		if st := h.Stats().Cache; st.Hits+st.Misses == 0 {
			t.Errorf("%s: no cache activity recorded", arr)
		}
		im.Close()
	}
}

func TestArrangementStrings(t *testing.T) {
	want := map[Arrangement]string{
		ClientHNSNSMs: "[Client, HNS, NSMs]",
		AgentHNSNSMs:  "[Client] [HNS, NSMs]",
		RemoteHNS:     "[HNS] [Client, NSMs]",
		RemoteNSMs:    "[NSMs] [Client, HNS]",
		AllRemote:     "[Client] [HNS] [NSMs]",
	}
	for arr, s := range want {
		if arr.String() != s {
			t.Errorf("%d.String() = %q, want %q", arr, arr.String(), s)
		}
	}
	if Arrangement(0).String() == "" {
		t.Error("unknown arrangement has empty String")
	}
}

// TestTable31AllCellsNearPaper asserts every one of the fifteen published
// cells, not just row 1: the whole table reproduces within ±20% (most
// cells land within a few percent; see EXPERIMENTS.md).
func TestTable31AllCellsNearPaper(t *testing.T) {
	w := newWorld(t)
	table, err := RunTable31(context.Background(), w, bind.CacheMarshalled)
	if err != nil {
		t.Fatal(err)
	}
	for _, arr := range Arrangements() {
		cell := table[arr]
		paper := PaperTable31[arr]
		for i, got := range []time.Duration{cell.Miss, cell.HNSHit, cell.BothHit} {
			col := []string{"A miss", "B hns-hit", "C both-hit"}[i]
			g := ms(got)
			want := paper[i]
			if g < want*0.80 || g > want*1.20 {
				t.Errorf("%s %s = %.1f ms, paper %.0f (off by %+.0f%%)",
					arr, col, g, want, (g/want-1)*100)
			}
		}
	}
}
