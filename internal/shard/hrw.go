package shard

// Rendezvous (highest-random-weight) hashing: every (member, name) pair
// gets a pseudo-random score, and the member with the highest score owns
// the name. Each name has exactly one owner by construction, and adding
// or removing one member remaps only the names that member wins or loses
// — an expected 1/N of the namespace — while every other assignment is
// untouched. That minimal-disruption property is what made epoch bumps
// cheap: rebalancing moved one slice, not the whole keyspace.

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// hrwScore hashes (seed, member id, name) with FNV-1a. The name is
// folded to lower case byte-wise, matching bind.CanonicalName, so
// routing is insensitive to the caller's casing. Inline (no hash.Hash64)
// keeps the warm routing path allocation-free.
func hrwScore(seed uint64, id, name string) uint64 {
	h := fnvOffset64
	for i := 0; i < 8; i++ {
		h ^= seed >> (8 * i) & 0xff
		h *= fnvPrime64
	}
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	// A separator byte keeps (id="ab", name="c") distinct from
	// (id="a", name="bc").
	h *= fnvPrime64
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Owner returns the member that owns name under this map. ok is false
// only for an empty map. Ties — astronomically unlikely
// but possible — break toward the lexically smaller member ID, so every
// correct implementation agrees on the owner.
func (m Map) Owner(name string) (Member, bool) {
	if len(m.Members) == 0 {
		return Member{}, false
	}
	best := m.Members[0]
	bestScore := hrwScore(m.Seed, best.ID, name)
	for _, mem := range m.Members[1:] {
		s := hrwScore(m.Seed, mem.ID, name)
		if s > bestScore || (s == bestScore && mem.ID < best.ID) {
			best, bestScore = mem, s
		}
	}
	return best, true
}
