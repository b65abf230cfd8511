package shard

import (
	"fmt"
	"testing"
)

// testMap builds an n-member map with IDs s0..s(n-1).
func testMap(n int, epoch uint32, seed uint64) Map {
	m := Map{Epoch: epoch, Seed: seed}
	for i := 0; i < n; i++ {
		m.Members = append(m.Members, Member{
			ID:   fmt.Sprintf("s%d", i),
			Addr: fmt.Sprintf("shard%d:bind-hrpc", i),
		})
	}
	return m
}

// Every name has exactly one owner, a member of the map, and ownership
// is deterministic.
func TestHRWDeterministicSingleOwner(t *testing.T) {
	m := testMap(8, 1, 42)
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("svc-%d.hns", i)
		a, ok := m.Owner(name)
		if !ok {
			t.Fatalf("no owner for %s", name)
		}
		b, _ := m.Owner(name)
		if a.ID != b.ID {
			t.Fatalf("owner of %s flapped: %s vs %s", name, a.ID, b.ID)
		}
		owners := 0
		for _, mem := range m.Members {
			if mem == a {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("%s: owner %v matches %d members", name, a, owners)
		}
	}
}

// Ownership is case-insensitive, matching canonical names.
func TestHRWCaseInsensitive(t *testing.T) {
	m := testMap(4, 1, 7)
	a, _ := m.Owner("Printer-Lab.HNS")
	b, _ := m.Owner("printer-lab.hns")
	if a.ID != b.ID {
		t.Fatalf("case-sensitive ownership: %s vs %s", a.ID, b.ID)
	}
}

// The rendezvous property: adding a member remaps roughly 1/N of the
// namespace, and every moved name lands on the new member.
func TestHRWJoinRemapsOneNth(t *testing.T) {
	const names = 8000
	before := testMap(4, 1, 3)
	after := testMap(5, 2, 3) // same seed, one more member: s4

	moved := 0
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("ctx-%d.hns", i)
		a, _ := before.Owner(name)
		b, _ := after.Owner(name)
		if a.ID == b.ID {
			continue
		}
		moved++
		if b.ID != "s4" {
			t.Fatalf("%s moved %s→%s, not to the joiner", name, a.ID, b.ID)
		}
	}
	// Expected 1/5 = 20%; allow 15–25%.
	frac := float64(moved) / names
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("join remapped %.1f%% of names, want ~20%%", 100*frac)
	}
}

// Removing a member remaps exactly that member's slice: survivors keep
// every name they had.
func TestHRWLeaveOnlyMovesTheLeaversSlice(t *testing.T) {
	const names = 4000
	before := testMap(4, 1, 11)
	after := Map{Epoch: 2, Seed: 11, Members: before.Members[:3]} // drop s3

	for i := 0; i < names; i++ {
		name := fmt.Sprintf("ctx-%d.hns", i)
		a, _ := before.Owner(name)
		b, _ := after.Owner(name)
		if a.ID != "s3" && a.ID != b.ID {
			t.Fatalf("%s moved %s→%s though its owner survived", name, a.ID, b.ID)
		}
	}
}

// Load spreads evenly: no shard owns more than ~2x its fair share.
func TestHRWBalance(t *testing.T) {
	const names = 8000
	m := testMap(8, 1, 123)
	counts := map[string]int{}
	for i := 0; i < names; i++ {
		owner, _ := m.Owner(fmt.Sprintf("host-%d.lab.hns", i))
		counts[owner.ID]++
	}
	fair := names / len(m.Members)
	for id, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Fatalf("shard %s owns %d of %d names (fair %d)", id, n, names, fair)
		}
	}
}

func TestOwnerOfEmptyMap(t *testing.T) {
	var m Map
	if _, ok := m.Owner("x.hns"); ok {
		t.Fatal("empty map produced an owner")
	}
}
