package bind

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// A transaction applies whole, in order — each op sees the ones before
// it — at one serial, recorded in the history as one entry.
func TestZoneApplyIsOneTransaction(t *testing.T) {
	z, _ := NewZone("d.test", true)
	if err := z.Add(A("a.d.test", "1", 60)); err != nil {
		t.Fatal(err)
	}
	base := z.Serial()
	ops := append(Removes(TypeA, "a.d.test"), Adds(A("a.d.test", "2", 60), A("b.d.test", "3", 60), A("b.d.test", "3", 600))...)
	serial, err := z.Apply(ops)
	if err != nil || serial != base+1 || z.Serial() != serial {
		t.Fatalf("Apply = %d, %v; zone at %d, want %d", serial, err, z.Serial(), base+1)
	}
	if got := FormatZoneFile(z.All()); got != "a.d.test 60 A 2\nb.d.test 600 A 3\n" {
		t.Fatalf("zone after the transaction:\n%s", got)
	}
	diffs, ok := z.DiffSince(base)
	if !ok || len(diffs) != 1 || diffs[0].Serial != serial || len(diffs[0].Ops) != len(ops) {
		t.Fatalf("history since %d = %+v, ok=%v; want the one transaction", base, diffs, ok)
	}
}

// A transaction that fails part way changes no record, no serial and no
// history: whatever its earlier ops staged is dropped.
func TestZoneApplyIsAllOrNothing(t *testing.T) {
	z, _ := NewZone("d.test", true)
	if err := z.Add(A("a.d.test", "1", 60)); err != nil {
		t.Fatal(err)
	}
	before := FormatZoneFile(z.All())
	serial := z.Serial()
	history, _ := z.DiffSince(serial - 1)
	for name, tc := range map[string]struct {
		ops  []Op
		want error
	}{
		"remove of a missing record": {append(Adds(A("b.d.test", "2", 60)), Removes(TypeA, "c.d.test")...), ErrNoSuchRecord},
		"add outside the zone":       {Adds(A("b.d.test", "2", 60), A("b.other.test", "2", 60)), ErrNotInZone},
		"alias over a record":        {Adds(A("b.d.test", "2", 60), CNAME("b.d.test", "a.d.test", 60)), ErrCNAMEConflict},
		"the same record twice gone": {append(Removes(TypeA, "a.d.test"), Removes(TypeA, "a.d.test")...), ErrNoSuchRecord},
	} {
		got, err := z.Apply(tc.ops)
		if !errors.Is(err, tc.want) || got != serial {
			t.Errorf("%s: Apply = %d, %v; want %d, %v", name, got, err, serial, tc.want)
		}
		if after := FormatZoneFile(z.All()); after != before || z.Serial() != serial {
			t.Errorf("%s: the zone moved to serial %d:\n%s", name, z.Serial(), after)
		}
		if h, ok := z.DiffSince(serial - 1); !ok || len(h) != len(history) || len(h[0].Ops) != len(history[0].Ops) {
			t.Errorf("%s: the history moved: %+v", name, h)
		}
	}
}

// The server refuses a malformed transaction with FORMERR before staging
// any of it: an empty one, one whose 'U' record would not fit a reply, and
// one naming an owner it serves from another zone, or from none.
func TestServerApplyRefusesMalformedTransactions(t *testing.T) {
	srv := NewServer("fiji")
	for _, origin := range []string{"hns", "meta.hns"} {
		z, _ := NewZone(origin, true)
		if err := srv.AddZone(z); err != nil {
			t.Fatal(err)
		}
	}
	z := srv.Zone("hns")
	if err := srv.LoadRecords([]RR{A("a.hns", "1", 60)}); err != nil {
		t.Fatal(err)
	}
	serial := z.Serial()
	big := make([]Op, replyBudget/MaxRDataLen+1)
	for i := range big {
		big[i] = Op{UpdateAdd, TXT(fmt.Sprintf("b%d.hns", i), strings.Repeat("x", MaxRDataLen), 60)}
	}
	ctx := context.Background()
	for name, ops := range map[string][]Op{
		"empty":                 nil,
		"larger than a reply":   big,
		"into a zone below":     Adds(A("b.hns", "2", 60), A("x.meta.hns", "2", 60)),
		"outside every zone":    Adds(A("b.hns", "2", 60), A("x.other.test", "2", 60)),
		"an unparseable owner":  Adds(A("b.hns", "2", 60), A("bad..hns", "2", 60)),
		"removing a zone below": append(Adds(A("b.hns", "2", 60)), Removes(TypeA, "x.meta.hns")...),
	} {
		rcode, got, err := srv.Apply(ctx, "hns", ops)
		if rcode != RCodeFormErr || err == nil || got != serial || z.Serial() != serial || z.Count() != 1 {
			t.Errorf("%s: Apply = %s, serial %d, %v; zone at %d with %d records", name, rcode, got, err, z.Serial(), z.Count())
		}
	}
	// A transaction that is well formed but fails to stage is SERVFAIL.
	if rcode, _, err := srv.Apply(ctx, "hns", append(Adds(A("b.hns", "2", 60)), Removes(TypeA, "c.hns")...)); rcode != RCodeServFail || !errors.Is(err, ErrNoSuchRecord) {
		t.Errorf("a failing remove = %s, %v; want SERVFAIL, ErrNoSuchRecord", rcode, err)
	}
	if z.Serial() != serial || z.Count() != 1 {
		t.Errorf("the refused transactions moved the zone to serial %d, %d records", z.Serial(), z.Count())
	}
}
